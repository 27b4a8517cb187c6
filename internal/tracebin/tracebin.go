// Package tracebin owns every on-disk encoding of obs simulation event
// traces:
//
//   - JSONL (JSONL, NewJSONL), the greppable interchange format;
//   - .zct (Writer, Reader), a compact, seekable, crash-tolerant binary
//     columnar format built for paper-scale inputs (tens of millions of
//     events) that JSONL cannot hold at multi-million-events/sec
//     emission rates;
//   - gzip, sniffed around either format on read and written around
//     JSONL when the path ends in ".gz".
//
// CreateSink opens the one atomic trace file type, File, whose output
// lands on Commit. Scanner and ReadAny are the one streaming read path:
// they sniff the content, never the file name. ScanFile reads a path
// the same way, but decodes an indexed .zct file's blocks on
// GOMAXPROCS goroutines while still handing events over in file
// order. Both encoders refuse
// events with a non-finite time or detail, so every .zct trace exports
// to JSONL.
//
// # File layout
//
//	file    := magic block* sentinel index trailer     (complete file)
//	         | magic block*                            (torn: crashed writer)
//	magic   := "ZCT1"                                  (4 bytes)
//	block   := u32le payloadLen
//	           payload                                 (payloadLen bytes)
//	           u32le crc32                             (IEEE, of payload)
//	sentinel:= u32le 0                                 (end of data blocks)
//	trailer := u32le indexLen
//	           u32le crc32                             (IEEE, of index)
//	           "ZCTIDX1\n"                             (8 bytes)
//
// Events are buffered into fixed-size blocks (DefaultBlockEvents per
// block) and encoded column-wise inside each block payload:
//
//	payload := uvarint eventCount
//	           dict                                    (partition names)
//	           dict                                    (run IDs)
//	           time column:   eventCount × svarint     (delta of IEEE-754 bits)
//	           kind column:   eventCount × byte
//	           job column:    eventCount × svarint
//	           part column:   eventCount × uvarint     (dict index; 0 = "")
//	           node column:   eventCount × svarint
//	           detail column: eventCount × f64le
//	           run column:    eventCount × uvarint     (dict index; 0 = "")
//	dict    := uvarint n, n × (uvarint len, len bytes)
//
// Simulated times are stored as zigzag-varint deltas of their raw
// float64 bit patterns: traces are (near-)monotonic, and the bit
// patterns of non-decreasing positive floats are themselves
// non-decreasing, so consecutive deltas are small while round-tripping
// every float exactly — a .zct trace exported back to JSONL is
// byte-identical to a trace written as JSONL directly.
//
// # Footer index
//
// The index that precedes the trailer makes the format seekable:
//
//	index := uvarint blockCount
//	         blockCount × ( uvarint offsetDelta        (from previous block start;
//	                                                    the first is absolute)
//	                        uvarint eventCount
//	                        f64le   minTime
//	                        f64le   maxTime )
//
// Readers with random access (Reader, ScanFile) use it to fan block
// decodes across CPU cores and to skip blocks by time range. A file whose
// trailer is missing or torn — the signature of a crash mid-write — is
// still fully readable: the reader falls back to a sequential frame
// scan, and a torn final block is skipped exactly like the torn tail of
// a persist.Journal. Torn or corrupt frames anywhere else are errors.
package tracebin

import (
	"encoding/binary"
	"fmt"
	"math"

	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// Magic is the 4-byte file header of a .zct trace.
const Magic = "ZCT1"

// trailerMagic terminates a complete file; its fixed position at EOF
// lets a reader locate the footer index without scanning.
const trailerMagic = "ZCTIDX1\n"

// DefaultBlockEvents is the writer's events-per-block target. At ~20
// encoded bytes per event a block is a few hundred KiB of JSONL reduced
// to well under 100 KiB — large enough to amortize per-block costs,
// small enough that a streaming reader holds only one block of events.
const DefaultBlockEvents = 4096

// maxFramePayload caps a frame's declared payload length so hostile or
// corrupt length prefixes cannot force huge allocations.
const maxFramePayload = 1 << 27 // 128 MiB

// maxDictEntries caps per-block dictionary sizes (each event can
// introduce at most one partition and one run string).
const maxDictEntries = 1 << 20

// BlockInfo is one footer-index entry: where a block lives and what it
// spans, enabling seek and block skipping without decoding.
type BlockInfo struct {
	Offset  int64 // file offset of the block's length prefix
	Events  int
	MinTime sim.Time
	MaxTime sim.Time
}

// blockInfo indexes a non-empty block of events written at offset off.
func blockInfo(off int64, events []obs.Event) BlockInfo {
	b := BlockInfo{Offset: off, Events: len(events), MinTime: events[0].Time, MaxTime: events[0].Time}
	for _, e := range events[1:] {
		if e.Time < b.MinTime {
			b.MinTime = e.Time
		}
		if e.Time > b.MaxTime {
			b.MaxTime = e.Time
		}
	}
	return b
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFinite is the one validation both encoders share: JSON has no
// NaN or infinity, so an event carrying one in its time or detail could
// never be exported, and neither format accepts it.
func checkFinite(e obs.Event) error {
	if !finite(float64(e.Time)) || !finite(e.Detail) {
		return fmt.Errorf("tracebin: %s event at t=%v has a non-finite time or detail (%v)", e.Kind, e.Time, e.Detail)
	}
	return nil
}

// zigzag encoding maps signed deltas onto uvarints.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendBlock encodes events column-wise onto dst. The caller
// guarantees len(events) > 0.
func appendBlock(dst []byte, events []obs.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))

	// Dictionaries: distinct partition names and run IDs, in first-use
	// order. Index 0 is reserved for the empty string and never stored.
	var parts, runs []string
	partIdx := map[string]uint64{"": 0}
	runIdx := map[string]uint64{"": 0}
	for _, e := range events {
		if _, ok := partIdx[e.Partition]; !ok {
			parts = append(parts, e.Partition)
			partIdx[e.Partition] = uint64(len(parts))
		}
		if _, ok := runIdx[e.Run]; !ok {
			runs = append(runs, e.Run)
			runIdx[e.Run] = uint64(len(runs))
		}
	}
	dst = appendDict(dst, parts)
	dst = appendDict(dst, runs)

	var prev uint64
	for _, e := range events {
		bits := math.Float64bits(float64(e.Time))
		dst = appendZigzag(dst, int64(bits-prev))
		prev = bits
	}
	for _, e := range events {
		dst = append(dst, byte(e.Kind))
	}
	for _, e := range events {
		dst = appendZigzag(dst, int64(e.Job))
	}
	for _, e := range events {
		dst = binary.AppendUvarint(dst, partIdx[e.Partition])
	}
	for _, e := range events {
		dst = appendZigzag(dst, int64(e.Nodes))
	}
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Detail))
	}
	for _, e := range events {
		dst = binary.AppendUvarint(dst, runIdx[e.Run])
	}
	return dst
}

func appendDict(dst []byte, strs []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(strs)))
	for _, s := range strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// blockDecoder walks a block payload with bounds checking; every read
// that would run past the payload is a descriptive error, so corrupt or
// hostile payloads (CRC collisions, fuzz inputs) can never panic.
type blockDecoder struct {
	p   []byte
	off int
}

func (d *blockDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tracebin: truncated varint at payload offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *blockDecoder) svarint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

func (d *blockDecoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.p) {
		return nil, fmt.Errorf("tracebin: truncated column at payload offset %d", d.off)
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *blockDecoder) dict() ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxDictEntries || n > uint64(len(d.p)) {
		return nil, fmt.Errorf("tracebin: implausible dictionary size %d", n)
	}
	strs := make([]string, n)
	for i := range strs {
		l, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(d.p)-d.off) {
			return nil, fmt.Errorf("tracebin: dictionary string overruns payload")
		}
		b, err := d.bytes(int(l))
		if err != nil {
			return nil, err
		}
		strs[i] = string(b)
	}
	return strs, nil
}

// dictLookup resolves a 0-based-empty dictionary index.
func dictLookup(dict []string, idx uint64) (string, error) {
	if idx == 0 {
		return "", nil
	}
	if idx > uint64(len(dict)) {
		return "", fmt.Errorf("tracebin: dictionary index %d out of range (%d entries)", idx, len(dict))
	}
	return dict[idx-1], nil
}

// DecodeBlock decodes one block payload, appending its events to buf
// (returned re-sliced, so a streaming reader can reuse one buffer per
// block). It validates every length, index, and event kind, and
// rejects non-finite times and details, which no encoder writes;
// corrupt input yields an error, never a panic or an unbounded
// allocation.
func DecodeBlock(payload []byte, buf []obs.Event) ([]obs.Event, error) {
	d := &blockDecoder{p: payload}
	count, err := d.uvarint()
	if err != nil {
		return buf, err
	}
	if count == 0 {
		return buf, fmt.Errorf("tracebin: empty block")
	}
	// Each event occupies at least one byte in the kind column alone.
	if count > uint64(len(payload)) {
		return buf, fmt.Errorf("tracebin: implausible event count %d in %d-byte payload", count, len(payload))
	}
	parts, err := d.dict()
	if err != nil {
		return buf, err
	}
	runs, err := d.dict()
	if err != nil {
		return buf, err
	}

	n := int(count)
	base := len(buf)
	buf = append(buf, make([]obs.Event, n)...)
	ev := buf[base:]

	var bits uint64
	for i := range ev {
		delta, err := d.svarint()
		if err != nil {
			return buf[:base], err
		}
		bits += uint64(delta)
		ev[i].Time = sim.Time(math.Float64frombits(bits))
		if !finite(float64(ev[i].Time)) {
			return buf[:base], fmt.Errorf("tracebin: non-finite time in event %d", i)
		}
	}
	kinds, err := d.bytes(n)
	if err != nil {
		return buf[:base], err
	}
	for i := range ev {
		k := obs.EventKind(kinds[i])
		if !k.Known() {
			return buf[:base], fmt.Errorf("tracebin: unknown event kind %d", kinds[i])
		}
		ev[i].Kind = k
	}
	for i := range ev {
		v, err := d.svarint()
		if err != nil {
			return buf[:base], err
		}
		ev[i].Job = int(v)
	}
	for i := range ev {
		idx, err := d.uvarint()
		if err != nil {
			return buf[:base], err
		}
		if ev[i].Partition, err = dictLookup(parts, idx); err != nil {
			return buf[:base], err
		}
	}
	for i := range ev {
		v, err := d.svarint()
		if err != nil {
			return buf[:base], err
		}
		ev[i].Nodes = int(v)
	}
	details, err := d.bytes(8 * n)
	if err != nil {
		return buf[:base], err
	}
	for i := range ev {
		ev[i].Detail = math.Float64frombits(binary.LittleEndian.Uint64(details[8*i:]))
		if !finite(ev[i].Detail) {
			return buf[:base], fmt.Errorf("tracebin: non-finite detail in event %d", i)
		}
	}
	for i := range ev {
		idx, err := d.uvarint()
		if err != nil {
			return buf[:base], err
		}
		if ev[i].Run, err = dictLookup(runs, idx); err != nil {
			return buf[:base], err
		}
	}
	if d.off != len(payload) {
		return buf[:base], fmt.Errorf("tracebin: %d trailing bytes after columns", len(payload)-d.off)
	}
	return buf, nil
}

// appendIndex encodes the footer index payload.
func appendIndex(dst []byte, blocks []BlockInfo) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	var prev int64
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.Offset-prev))
		prev = b.Offset
		dst = binary.AppendUvarint(dst, uint64(b.Events))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(b.MinTime)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(b.MaxTime)))
	}
	return dst
}

// decodeIndex parses a footer index payload, validating block offsets
// against the file size so a hostile index cannot direct reads out of
// bounds.
func decodeIndex(payload []byte, fileSize int64) ([]BlockInfo, error) {
	d := &blockDecoder{p: payload}
	count, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("tracebin: implausible index block count %d", count)
	}
	blocks := make([]BlockInfo, count)
	var prev int64
	for i := range blocks {
		od, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		events, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		minb, err := d.bytes(8)
		if err != nil {
			return nil, err
		}
		maxb, err := d.bytes(8)
		if err != nil {
			return nil, err
		}
		off := prev + int64(od)
		if off < int64(len(Magic)) || off >= fileSize || od > uint64(fileSize) {
			return nil, fmt.Errorf("tracebin: index block %d offset %d outside file (%d bytes)", i, off, fileSize)
		}
		if events == 0 || events > uint64(fileSize) {
			return nil, fmt.Errorf("tracebin: index block %d has implausible event count %d", i, events)
		}
		blocks[i] = BlockInfo{
			Offset:  off,
			Events:  int(events),
			MinTime: sim.Time(math.Float64frombits(binary.LittleEndian.Uint64(minb))),
			MaxTime: sim.Time(math.Float64frombits(binary.LittleEndian.Uint64(maxb))),
		}
		prev = off
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("tracebin: %d trailing bytes after index", len(payload)-d.off)
	}
	return blocks, nil
}
