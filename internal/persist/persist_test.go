package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n1,2\n" {
		t.Fatalf("content %q", got)
	}
	// Overwrite: old content must be fully replaced.
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("after overwrite: %q", got)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want 1", len(ents))
	}
}

func TestCreateAtomicCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.md")

	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("partial"))
	f.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("aborted write created the destination")
	}

	f, err = CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("complete"))
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "complete" {
		t.Fatalf("content %q", got)
	}
	if err := f.Commit(); err == nil {
		t.Fatal("double Commit accepted")
	}
}

type doc struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	want := doc{Name: "cell-3", Value: 0.1 + 0.2} // exercise float64 round-trip
	if err := SaveJSON(path, "snapshot", 2, want); err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := LoadJSON(path, "snapshot", 2, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip %+v != %+v", got, want)
	}
}

func TestLoadJSONRejectsSkewAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := SaveJSON(path, "snapshot", 1, doc{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var out doc
	if err := LoadJSON(path, "snapshot", 2, &out); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew: err = %v", err)
	}
	if err := LoadJSON(path, "journal", 1, &out); err == nil ||
		!strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("kind mismatch: err = %v", err)
	}
	// Flip one byte inside the body: the checksum must catch it.
	blob, _ := os.ReadFile(path)
	i := strings.Index(string(blob), `"x"`)
	blob[i+1] = 'y'
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, "snapshot", 1, &out); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption: err = %v", err)
	}
}

func readAll(t *testing.T, path string) []doc {
	t.Helper()
	var out []doc
	err := ReadJournal(path, func() any { return &doc{} }, func(rec any) error {
		out = append(out, *rec.(*doc))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(doc{Name: "r", Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, path)
	if len(got) != 3 || got[2].Value != 2 {
		t.Fatalf("read %+v", got)
	}

	// Re-open appends, never truncates.
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(doc{Name: "r", Value: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readAll(t, path); len(got) != 4 {
		t.Fatalf("after reopen: %d records, want 4", len(got))
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := OpenJournal(path)
	j.Append(doc{Name: "a", Value: 1})
	j.Append(doc{Name: "b", Value: 2})
	j.Close()
	// Simulate a crash mid-append: a trailing fragment with no newline.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"name":"c","val`)
	f.Close()
	got := readAll(t, path)
	if len(got) != 2 || got[1].Name != "b" {
		t.Fatalf("torn tail not ignored: %+v", got)
	}
}

// TestJournalReopenDropsTornTail: appending after a crash mid-append
// must not glue the next record onto the torn fragment, which would
// leave a corrupt line in the middle of the journal.
func TestJournalReopenDropsTornTail(t *testing.T) {
	for _, torn := range []string{`{"name":"c","val`, strings.Repeat("x", 5000)} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		j, _ := OpenJournal(path)
		j.Append(doc{Name: "a", Value: 1})
		j.Close()
		f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		f.WriteString(torn)
		f.Close()
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(doc{Name: "b", Value: 2}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if got := readAll(t, path); len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
			t.Fatalf("after reopen over a %d-byte torn tail: %+v", len(torn), got)
		}
	}
	// A journal that is all torn fragment reopens empty.
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	os.WriteFile(path, []byte(`{"name":"a"`), 0o644)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(doc{Name: "b", Value: 2})
	j.Close()
	if got := readAll(t, path); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("after reopen over a journal with no complete line: %+v", got)
	}
}

func TestJournalTornMiddleIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("{\"name\":\"a\"}\n{bad json}\n{\"name\":\"c\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := ReadJournal(path, func() any { return &doc{} }, func(any) error { return nil })
	if err == nil {
		t.Fatal("mid-journal corruption not reported")
	}
}

func TestJournalMissingFileReadsEmpty(t *testing.T) {
	if got := readAll(t, filepath.Join(t.TempDir(), "absent.jsonl")); len(got) != 0 {
		t.Fatalf("missing journal read %d records", len(got))
	}
}

func TestFingerprintStability(t *testing.T) {
	a, err := Fingerprint(map[string]int{"b": 2, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Fingerprint(map[string]int{"a": 1, "b": 2})
	if a != b {
		t.Error("map key order changed the fingerprint")
	}
	c, _ := Fingerprint(map[string]int{"a": 1, "b": 3})
	if a == c {
		t.Error("different values share a fingerprint")
	}
}
