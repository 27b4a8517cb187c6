// Package persist provides the crash-safety primitives the simulator's
// durability layer is built on:
//
//   - atomic file writes (temp file in the target directory + fsync +
//     rename), so an interrupted run never leaves a truncated artifact;
//   - a versioned, checksummed JSON envelope for snapshots and other
//     state files, refusing corrupted or version-skewed payloads on
//     read;
//   - an append-only, fsync-per-record JSONL journal whose reader
//     tolerates a torn trailing line (the signature of a crash mid
//     append) without losing the records before it.
//
// Everything here uses only the standard library and never reads the
// wall clock, keeping the simulator deterministic.
package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that the file is either fully
// written or untouched: the bytes land in a temp file in the same
// directory, are fsynced, and the temp file is renamed over path. On
// POSIX filesystems rename is atomic, so a crash at any point leaves
// either the old content or the new, never a mix or a truncation.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	return a.commit(perm)
}

// syncDir fsyncs a directory so a rename survives power loss. Some
// platforms refuse to fsync directories; that is not fatal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() // best-effort
	return nil
}

// CreateAtomic opens a temp file that Commit renames over path. It
// generalizes WriteFileAtomic for writers that stream (CSV encoders,
// buffered markdown): write to File, then Commit; Abort (or a dropped
// File at process exit) leaves path untouched.
type File struct {
	f       *os.File
	path    string
	inPlace bool // path is a device or pipe, written directly
	done    bool
}

// CreateAtomic starts an atomic write to path. A path that exists as
// something other than a regular file, such as /dev/null or a named
// pipe, is written in place: renaming over it would replace the device
// with a plain file.
func CreateAtomic(path string) (*File, error) {
	if st, err := os.Stat(path); err == nil && !st.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		return &File{f: f, path: path, inPlace: true}, nil
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &File{f: f, path: path}, nil
}

// Write implements io.Writer.
func (a *File) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit fsyncs the temp file and renames it over the destination; an
// in-place destination is only closed.
func (a *File) Commit() error { return a.commit(0o644) }

func (a *File) commit(perm os.FileMode) error {
	if a.done {
		return fmt.Errorf("persist: %s already committed or aborted", a.path)
	}
	a.done = true
	if a.inPlace {
		return a.f.Close()
	}
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return fmt.Errorf("persist: syncing %s: %w", a.path, err)
	}
	if err := a.f.Chmod(perm); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return fmt.Errorf("persist: chmod %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("persist: closing %s: %w", a.path, err)
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(filepath.Dir(a.path))
}

// Abort discards the temp file, leaving the destination untouched.
func (a *File) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	if !a.inPlace {
		os.Remove(a.f.Name())
	}
}

// envelope is the on-disk frame of a versioned, checksummed document.
type envelope struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Body    json.RawMessage `json:"body"`
}

// SaveJSON atomically writes body (JSON-marshaled) to path inside a
// frame carrying a kind tag, a format version, and a SHA-256 of the
// body. LoadJSON verifies all three before unmarshaling.
func SaveJSON(path, kind string, version int, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("persist: marshaling %s: %w", kind, err)
	}
	sum := sha256.Sum256(raw)
	env := envelope{Kind: kind, Version: version, SHA256: hex.EncodeToString(sum[:]), Body: raw}
	blob, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return WriteFileAtomic(path, append(blob, '\n'), 0o644)
}

// ErrVersion reports a document written at another version than the
// one the reader asked for, typically by an older or newer build.
var ErrVersion = errors.New("persist: version mismatch")

// LoadJSON reads a document written by SaveJSON, verifying the kind tag,
// version, and checksum before unmarshaling into out. A mismatch is a
// descriptive error, never a silently misparsed document; a version
// mismatch wraps ErrVersion.
func LoadJSON(path, kind string, version int, out any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return fmt.Errorf("persist: %s is not a valid envelope: %w", path, err)
	}
	if env.Kind != kind {
		return fmt.Errorf("persist: %s holds a %q document, want %q", path, env.Kind, kind)
	}
	if env.Version != version {
		return fmt.Errorf("%w: %s is %s version %d, this build reads version %d",
			ErrVersion, path, kind, env.Version, version)
	}
	sum := sha256.Sum256(env.Body)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return fmt.Errorf("persist: %s failed its checksum (corrupted write?)", path)
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("persist: decoding %s body: %w", path, err)
	}
	return nil
}

// Journal is an append-only JSONL record log with fsync-per-record
// durability: once Append returns, the record survives a crash. The
// reader side (ReadJournal) tolerates a torn final line.
type Journal struct {
	f *os.File
	w *bufio.Writer
}

// OpenJournal opens (creating if needed) a journal for appending. A torn
// final line, left by a crash mid-append, is cut off first: appended
// after it, the next record would turn it into a corrupt line in the
// middle of the journal, which ReadJournal refuses.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := dropTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, nil
}

// dropTornTail truncates f after its last newline.
func dropTornTail(f *os.File) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	off := end
	for off > 0 {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			off += int64(i) + 1
			break
		}
	}
	if off == end {
		return nil
	}
	return f.Truncate(off)
}

// Append marshals rec as one JSON line, writes it, and fsyncs. A record
// is either fully on disk when Append returns nil, or (after a crash)
// detectably torn and ignored by ReadJournal.
func (j *Journal) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: marshaling journal record: %w", err)
	}
	if bytes.ContainsRune(line, '\n') {
		return fmt.Errorf("persist: journal record serializes with a newline")
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("persist: syncing journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	return j.f.Close()
}

// ReadJournal decodes every complete record of a journal into fresh
// values produced by newRec, calling visit for each. A torn trailing
// line — no final newline, or invalid JSON on the last line only — is
// the signature of a crash mid-append and is skipped; torn or invalid
// records anywhere else are reported as errors. A missing journal file
// reads as empty.
func ReadJournal(path string, newRec func() any, visit func(rec any) error) error {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	complete := blob
	var torn []byte
	if n := len(blob); n > 0 && blob[n-1] != '\n' {
		// Crash mid-append: the final unterminated fragment is not data.
		if i := bytes.LastIndexByte(blob, '\n'); i >= 0 {
			complete, torn = blob[:i+1], blob[i+1:]
		} else {
			complete, torn = nil, blob
		}
	}
	_ = torn
	sc := bufio.NewScanner(bytes.NewReader(complete))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec := newRec()
		if err := json.Unmarshal(line, rec); err != nil {
			return fmt.Errorf("persist: %s line %d: %w", path, lineNo, err)
		}
		if err := visit(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Fingerprint returns the SHA-256 hex digest of v's JSON encoding — a
// deterministic identity for a configuration, used to guard resumed
// runs against silently mixing results from different setups.
func Fingerprint(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("persist: fingerprinting: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
