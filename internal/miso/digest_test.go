package miso

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// Pinned digests of short seeded record streams (see
// TestRecordStreamDigest). The CSV digest pins WriteCSV's bytes; the
// bits digest pins every field of every Record exactly (the CSV keeps
// three decimals, so it cannot see a last-bit change). They change only
// when the synthetic dataset changes; a refactor that claims to keep the
// records must leave them alone. Regenerate with `go test
// ./internal/miso -run TestRecordStreamDigest -v` only for an intended
// change to the dataset, and say why in the commit.
var wantStreams = []struct {
	name      string
	cfg       Config
	csv, bits string
	sum       Summary
}{
	{"miso", Config{Seed: 11, Days: 3, WindSites: 20},
		"12722284add8649b12f0599eb92f8be85433fb1dc3a0ec29408158f61cf98660",
		"723c273f0d57d19fba824f5245a10b34ac6473d51c88fd2426c8e4a892919032",
		Summary{Days: 3, Sites: 39, WindSites: 20, Intervals: 33696, WindIntervals: 17280,
			TotalGWh: 3600.663744401583, WindGWh: 44.602948429380604,
			TotalDollars: 1.115569394137702e+08, WindDollars: 990123.3970423522,
			WindCurtailedGWh: 0.9799429712442214}},
	{"miso-start-day", Config{Seed: 12, Days: 2.5, WindSites: 21, StartDay: 20.5},
		"09683272eecc6f99c851af69f3d66300bf4bce548962080a97fdcb60919997d3",
		"aaced127cb42ac98448e0f12b58a5d6bba61dc59a75116a5fa118065aa51f333",
		Summary{Days: 2.5, Sites: 40, WindSites: 21, Intervals: 28800, WindIntervals: 15120,
			TotalGWh: 3025.581715935433, WindGWh: 17.164409460135754,
			TotalDollars: 9.58047618027421e+07, WindDollars: 521476.5940237302,
			WindCurtailedGWh: 0.00038898538105103714}},
	{"caiso-start-day", Config{Seed: 13, Days: 2, WindSites: 20, Scenario: ScenarioCAISO, StartDay: 172},
		"f0a672cab6d1c8af556860d1928b9ff43ee2da7565b855894a01eced2111d9fc",
		"8b78fd1cda25d655c03553c6f1f9e2706727ba499cbaba4377aa8f61e8d8f889",
		Summary{Days: 2, Sites: 35, WindSites: 20, Intervals: 20160, WindIntervals: 11520,
			TotalGWh: 1430.6055718216421, WindGWh: 22.701389513796606,
			TotalDollars: 4.092599064985231e+07, WindDollars: 616720.9269858144,
			WindCurtailedGWh: 0.25852129281930447}},
}

// TestRecordStreamDigest is a cross-commit identity oracle for the
// market dataset: it compares the record stream and Summary of three
// seeded datasets, MISO and CAISO, with and without a StartDay phase
// offset, against values recorded from an earlier build.
func TestRecordStreamDigest(t *testing.T) {
	for _, want := range wantStreams {
		t.Run(want.name, func(t *testing.T) {
			csv, bits, sum := streamDigests(t, want.cfg)
			if csv != want.csv {
				t.Errorf("csv digest = %s, want %s", csv, want.csv)
			}
			if bits != want.bits {
				t.Errorf("bits digest = %s, want %s", bits, want.bits)
			}
			if sum != want.sum {
				t.Errorf("summary = %#v,\nwant %#v", sum, want.sum)
			}
		})
	}
}

// streamDigests writes cfg's dataset with WriteCSV and digests the
// bytes, then regenerates it and digests the exact bits of its records.
func streamDigests(t *testing.T, cfg Config) (csv, bits string, sum Summary) {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := WriteCSV(g, &out); err != nil {
		t.Fatal(err)
	}
	c := sha256.Sum256(out.Bytes())
	sum = g.Summary()

	g, err = NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var row [36]byte
	var buf []Record
	for {
		var ok bool
		if buf, ok = g.Next(buf); !ok {
			break
		}
		for _, r := range buf {
			binary.LittleEndian.PutUint64(row[0:], uint64(r.Interval))
			binary.LittleEndian.PutUint32(row[8:], uint32(r.Site))
			binary.LittleEndian.PutUint64(row[12:], math.Float64bits(r.LMP))
			binary.LittleEndian.PutUint64(row[20:], math.Float64bits(r.DeliveredMW))
			binary.LittleEndian.PutUint64(row[28:], math.Float64bits(r.EconomicMaxMW))
			h.Write(row[:])
		}
	}
	if g.Summary() != sum {
		t.Fatalf("summary after Next differs from summary after WriteCSV")
	}
	return hex.EncodeToString(c[:]), hex.EncodeToString(h.Sum(nil)), sum
}
