package tracebin

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"zccloud/internal/obs"
)

// ErrFormat reports that an input lacks the .zct magic.
var ErrFormat = errors.New("tracebin: not a .zct trace")

// frameStatus classifies the outcome of reading one frame.
type frameStatus int

const (
	frameOK   frameStatus = iota
	frameEnd              // sentinel, clean EOF, or a tolerated torn tail
	frameFail             // corruption before the final frame
)

// frameScanner pulls length-prefixed CRC32 frames off a stream,
// tolerating a torn final frame (short header, short payload, or a
// checksum mismatch at EOF) the way persist.ReadJournal tolerates a
// torn trailing line: the torn bytes are not data, everything before
// them is. Corruption that is provably not a torn tail — a bad
// checksum with more bytes following — is an error.
type frameScanner struct {
	br      *bufio.Reader
	scratch []byte
	frames  int
}

// next returns the next frame's payload (valid until the following
// call) and the total encoded size of the frame.
func (fs *frameScanner) next() ([]byte, int64, frameStatus, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fs.br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, frameEnd, nil // missing sentinel: torn tail
		}
		return nil, 0, frameFail, fmt.Errorf("tracebin: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, 4, frameEnd, nil // sentinel: end of data blocks
	}
	if n > maxFramePayload {
		return nil, 0, frameFail, fmt.Errorf("tracebin: frame of %d bytes exceeds the %d-byte cap", n, maxFramePayload)
	}
	// Read the body in bounded chunks so a hostile length prefix on a
	// short stream cannot force a huge upfront allocation: memory grows
	// only as fast as bytes actually arrive.
	need := int(n) + 4
	body := fs.scratch[:0]
	for len(body) < need {
		chunk := need - len(body)
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
		start := len(body)
		body = append(body, make([]byte, chunk)...)
		if _, err := io.ReadFull(fs.br, body[start:]); err != nil {
			fs.scratch = body[:0]
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, 0, frameEnd, nil // truncated mid-frame: torn tail
			}
			return nil, 0, frameFail, fmt.Errorf("tracebin: reading frame: %w", err)
		}
	}
	fs.scratch = body
	payload := body[:n]
	want := binary.LittleEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != want {
		// A checksum mismatch on the very last bytes of the stream is a
		// torn final frame; anywhere else it is corruption.
		if _, err := fs.br.Peek(1); err == io.EOF {
			return nil, 0, frameEnd, nil
		}
		return nil, 0, frameFail, fmt.Errorf("tracebin: block %d failed its CRC32 check", fs.frames)
	}
	fs.frames++
	return payload, int64(n) + 8, frameOK, nil
}

// Scanner streams obs.Events out of any trace input — .zct, JSONL, or
// either gzipped — by sniffing the content, never the file name. A .zct
// input is decoded one block at a time into a reused buffer, so memory
// stays bounded by the block size regardless of trace length.
type Scanner struct {
	fs    *frameScanner // nil for JSONL inputs
	jsonl *jsonlScanner
	gz    *gzip.Reader // nil unless the input is gzipped
	src   io.Reader
	buf   []obs.Event
	pos   int
	done  bool
}

// NewScanner sniffs r for the gzip and .zct magics and returns a
// streaming event scanner. Close it when done; it closes r too when r
// is an io.Closer.
func NewScanner(r io.Reader) (*Scanner, error) {
	s := &Scanner{src: r}
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, _ := br.Peek(2); len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("tracebin: reading gzip trace: %w", err)
		}
		s.gz = gz
		br = bufio.NewReaderSize(gz, 1<<20)
	}
	if magic, _ := br.Peek(len(Magic)); string(magic) == Magic {
		br.Discard(len(Magic))
		s.fs = &frameScanner{br: br}
	} else {
		s.jsonl = newJSONLScanner(br)
	}
	return s, nil
}

// Binary reports whether the input sniffed as .zct.
func (s *Scanner) Binary() bool { return s.fs != nil }

// Next returns the next event; ok is false at end of input.
func (s *Scanner) Next() (obs.Event, bool, error) {
	if s.jsonl != nil {
		return s.jsonl.next()
	}
	for s.pos >= len(s.buf) {
		if s.done {
			return obs.Event{}, false, nil
		}
		payload, _, st, err := s.fs.next()
		if err != nil {
			return obs.Event{}, false, err
		}
		if st == frameEnd {
			s.done = true
			return obs.Event{}, false, nil
		}
		s.buf, err = DecodeBlock(payload, s.buf[:0])
		s.pos = 0
		if err != nil {
			return obs.Event{}, false, err
		}
	}
	e := s.buf[s.pos]
	s.pos++
	return e, true, nil
}

// Close releases the gzip reader, if any, and closes the source when it
// is an io.Closer.
func (s *Scanner) Close() error {
	var err error
	if s.gz != nil {
		err = s.gz.Close()
	}
	if c, ok := s.src.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadAny streams every event of a trace in any supported format
// (.zct, JSONL, gzipped either) through fn.
func ReadAny(r io.Reader, fn func(obs.Event) error) error {
	sc, err := NewScanner(r)
	if err != nil {
		return err
	}
	defer sc.Close()
	for {
		e, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// Reader is a random-access .zct trace: it resolves the block index
// (from the footer when present, by a sequential frame scan when the
// file is torn) and decodes any block independently, so scans can fan
// blocks across CPU cores. The underlying io.ReaderAt must support
// concurrent ReadAt calls (os.File and bytes.Reader both do).
type Reader struct {
	r       io.ReaderAt
	size    int64
	blocks  []BlockInfo
	indexed bool // footer index was present and valid
}

// NewReader opens a .zct trace held in r. Inputs without the magic
// return ErrFormat (gzipped traces have no random access; use a
// Scanner for those).
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if !hasMagic(r) {
		return nil, ErrFormat
	}
	rd := &Reader{r: r, size: size}
	if blocks, ok := readFooterIndex(r, size); ok {
		rd.blocks, rd.indexed = blocks, true
		return rd, nil
	}
	blocks, err := scanBlocks(r, size)
	if err != nil {
		return nil, err
	}
	rd.blocks = blocks
	return rd, nil
}

func hasMagic(r io.ReaderAt) bool {
	var magic [len(Magic)]byte
	_, err := r.ReadAt(magic[:], 0)
	return err == nil && string(magic[:]) == Magic
}

// readFooterIndex tries the fixed-position trailer; any defect —
// missing magic, bad checksum, implausible geometry — reports !ok so
// the caller falls back to scanning rather than trusting a torn or
// hostile footer.
func readFooterIndex(r io.ReaderAt, size int64) ([]BlockInfo, bool) {
	const trailerLen = 8 + int64(len(trailerMagic))
	if size < int64(len(Magic))+4+trailerLen { // magic + sentinel + trailer
		return nil, false
	}
	var trailer [8 + len(trailerMagic)]byte
	if _, err := r.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, false
	}
	if string(trailer[8:]) != trailerMagic {
		return nil, false
	}
	indexLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	wantCRC := binary.LittleEndian.Uint32(trailer[4:8])
	start := size - trailerLen - indexLen
	if indexLen > maxFramePayload || start < int64(len(Magic))+4 {
		return nil, false
	}
	payload := make([]byte, indexLen)
	if _, err := r.ReadAt(payload, start); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, false
	}
	blocks, err := decodeIndex(payload, size)
	if err != nil {
		return nil, false
	}
	return blocks, true
}

// scanBlocks rebuilds the block index of a torn file by walking its
// frames, decoding each block to recover event counts and time spans.
func scanBlocks(r io.ReaderAt, size int64) ([]BlockInfo, error) {
	fs := &frameScanner{br: bufio.NewReaderSize(
		io.NewSectionReader(r, int64(len(Magic)), size-int64(len(Magic))), 1<<20)}
	off := int64(len(Magic))
	var blocks []BlockInfo
	var buf []obs.Event
	for {
		payload, n, st, err := fs.next()
		if err != nil {
			return nil, err
		}
		if st == frameEnd {
			return blocks, nil
		}
		buf, err = DecodeBlock(payload, buf[:0])
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, blockInfo(off, buf))
		off += n
	}
}

// Indexed reports whether the file carried a valid footer index (false
// means the block index was rebuilt by scanning a torn file).
func (r *Reader) Indexed() bool { return r.indexed }

// Blocks returns the number of data blocks.
func (r *Reader) Blocks() int { return len(r.blocks) }

// BlockInfo returns the index entry of block i.
func (r *Reader) BlockInfo(i int) BlockInfo { return r.blocks[i] }

// Events returns the total event count across all blocks.
func (r *Reader) Events() int {
	n := 0
	for _, b := range r.blocks {
		n += b.Events
	}
	return n
}

// DecodeBlockAt decodes block i, appending its events to buf (returned
// re-sliced). Safe for concurrent calls with distinct buffers.
func (r *Reader) DecodeBlockAt(i int, buf []obs.Event) ([]obs.Event, error) {
	buf, _, err := r.decodeBlockAt(i, buf, nil)
	return buf, err
}

// decodeBlockAt is DecodeBlockAt reading the frame into scratch, which
// it returns grown for reuse by the next call.
func (r *Reader) decodeBlockAt(i int, buf []obs.Event, scratch []byte) ([]obs.Event, []byte, error) {
	info := r.blocks[i]
	var hdr [4]byte
	if _, err := r.r.ReadAt(hdr[:], info.Offset); err != nil {
		return buf, scratch, fmt.Errorf("tracebin: block %d: %w", i, err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFramePayload || info.Offset+4+n+4 > r.size {
		return buf, scratch, fmt.Errorf("tracebin: block %d has implausible frame length %d", i, n)
	}
	if int64(cap(scratch)) < n+4 {
		scratch = make([]byte, n+4)
	}
	body := scratch[:n+4]
	if _, err := r.r.ReadAt(body, info.Offset+4); err != nil {
		return buf, scratch, fmt.Errorf("tracebin: block %d: %w", i, err)
	}
	payload := body[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[n:]) {
		return buf, scratch, fmt.Errorf("tracebin: block %d failed its CRC32 check", i)
	}
	base := len(buf)
	buf, err := DecodeBlock(payload, buf)
	if err != nil {
		return buf, scratch, fmt.Errorf("tracebin: block %d: %w", i, err)
	}
	if len(buf)-base != info.Events {
		return buf[:base], scratch, fmt.Errorf("tracebin: block %d holds %d events, index says %d",
			i, len(buf)-base, info.Events)
	}
	return buf, scratch, nil
}

// scan hands every event to fn in file order while workers goroutines
// decode blocks ahead of it; at most 2*workers decoded blocks wait for
// fn. The first error, from a block or from fn, ends the scan, and no
// worker is left running when scan returns. fn runs on the caller's
// goroutine.
func (r *Reader) scan(workers int, fn func(obs.Event) error) error {
	n := len(r.blocks)
	workers = max(1, min(workers, n))
	window := 2 * workers
	type decoded struct {
		events []obs.Event
		err    error
	}
	type job struct {
		block  int
		events []obs.Event // a consumed block's buffer, for reuse
	}
	// At most window blocks are queued or decoded but unconsumed, and
	// block i+window is queued only once block i is consumed, so no
	// send on jobs or on a slot ever blocks.
	jobs := make(chan job, window)
	slots := make([]chan decoded, window) // block i lands in slots[i%window]
	for k := range slots {
		slots[k] = make(chan decoded, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte
			for j := range jobs {
				var d decoded
				d.events, scratch, d.err = r.decodeBlockAt(j.block, j.events, scratch)
				slots[j.block%window] <- d
			}
		}()
	}
	// On an early return the workers finish the blocks already queued,
	// which no one reads, and exit.
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	for i := 0; i < min(window, n); i++ {
		jobs <- job{block: i}
	}
	for i := 0; i < n; i++ {
		d := <-slots[i%window]
		if d.err != nil {
			return d.err
		}
		for _, e := range d.events {
			if err := fn(e); err != nil {
				return err
			}
		}
		if next := i + window; next < n {
			jobs <- job{block: next, events: d.events[:0]}
		}
	}
	return nil
}

// ScanFile streams every event of the trace file at path through fn,
// in file order, like ReadAny. A .zct file with an intact footer index
// has its blocks decoded on GOMAXPROCS goroutines ahead of fn, with
// memory bounded by a few blocks per goroutine; any other input —
// JSONL, gzip, a torn .zct — goes through the streaming Scanner,
// chosen by content as ReadAny does. fn runs on the caller's goroutine.
func ScanFile(path string, fn func(obs.Event) error) error {
	return scanFile(path, runtime.GOMAXPROCS(0), fn)
}

func scanFile(path string, workers int, fn func(obs.Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if st, err := f.Stat(); err == nil && hasMagic(f) {
		if blocks, ok := readFooterIndex(f, st.Size()); ok {
			defer f.Close()
			r := &Reader{r: f, size: st.Size(), blocks: blocks, indexed: true}
			return r.scan(workers, fn)
		}
	}
	return ReadAny(f, fn) // ReadAt leaves the offset at 0; the Scanner closes f
}

// FileReader is a Reader over an opened file.
type FileReader struct {
	*Reader
	f *os.File
}

// Open opens a .zct trace file for random access. Non-.zct files
// (JSONL, anything gzipped) return ErrFormat; callers fall back to a
// Scanner for those.
func Open(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close closes the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }
