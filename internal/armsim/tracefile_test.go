package armsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// traceTestOps is a program mixing word stores, byte stores (which
// exercise word normalization), loads, and an output-port store.
func traceTestOps() []uint16 {
	ops := []uint16{
		movImm8(2, 0x40), // address base
		movImm8(0, 0x11),
	}
	for i := 0; i < 10; i++ {
		ops = append(ops,
			uint16(0b0110<<12|0<<11|0<<6|2<<3|0), // STR r0, [r2]
			uint16(0b0111<<12|0<<11|2<<6|2<<3|0), // STRB r0, [r2, #2]
			uint16(0b0110<<12|1<<11|0<<6|2<<3|4), // LDR r4, [r2]
		)
	}
	ops = append(ops,
		movImm8(5, 0x40),
		uint16(0b00000<<11|24<<6|5<<3|5),     // LSLS r5, #24 -> output port
		uint16(0b0110<<12|0<<11|0<<6|5<<3|0), // STR r0, [r5]
		opBKPT,
	)
	return ops
}

// testMeta is an arbitrary provenance header for round-trip tests.
var testMeta = TraceMeta{ImageDigest: [32]byte{1, 2, 3, 31: 0xEE}, TextStart: 0x40, TextEnd: 0x82}

// roundTrip writes trace with WriteTraceMeta and reads it back.
func roundTrip(t *testing.T, trace []Access, total uint64, meta TraceMeta) ([]Access, uint64, TraceMeta) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTraceMeta(&buf, trace, total, meta); err != nil {
		t.Fatal(err)
	}
	got, gotTotal, gotMeta, err := ReadTraceMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got, gotTotal, gotMeta
}

func TestTraceRoundTrip(t *testing.T) {
	ops := []uint16{
		movImm8(2, 0x40),
		movImm8(0, 9),
		uint16(0b0110<<12 | 0<<11 | 0<<6 | 2<<3 | 0), // STR r0, [r2]
		uint16(0b0110<<12 | 1<<11 | 0<<6 | 2<<3 | 1), // LDR r1, [r2]
		opBKPT,
	}
	trace, total, err := CollectTrace(asmImage(ops...), 10000)
	if err != nil {
		t.Fatal(err)
	}
	got, gotTotal, gotMeta := roundTrip(t, trace, total, testMeta)
	if gotTotal != total || len(got) != len(trace) || gotMeta != testMeta {
		t.Fatalf("round trip: %d/%d records, %d/%d cycles, meta %+v", len(got), len(trace), gotTotal, total, gotMeta)
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], trace[i])
		}
	}
}

func TestTraceRoundTripQuick(t *testing.T) {
	prop := func(raw []uint32, total16 uint16, meta TraceMeta) bool {
		trace := make([]Access, len(raw))
		var cyc uint64
		for i, v := range raw {
			cyc += uint64(v % 7)
			trace[i] = Access{
				Write: v&1 != 0,
				Addr:  v &^ 3 % MemSize,
				Size:  4,
				Value: v * 3,
				Prev:  v ^ 0xAAAA,
				PC:    v % 0x10000,
				Cycle: cyc,
			}
		}
		total := cyc + uint64(total16)
		var buf bytes.Buffer
		if err := WriteTraceMeta(&buf, trace, total, meta); err != nil {
			return false
		}
		got, gotTotal, gotMeta, err := ReadTraceMeta(&buf)
		if err != nil || gotTotal != total || len(got) != len(trace) || gotMeta != meta {
			return false
		}
		for i := range trace {
			if got[i] != trace[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// writeTestTrace returns the v2 encoding of trace.
func writeTestTrace(t testing.TB, trace []Access, total uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTraceMeta(&buf, trace, total, testMeta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Header is a legacy CLNKTRC1 header (magic, total cycles, record
// count) claiming count records.
func v1Header(total, count uint64) []byte {
	hdr := binary.LittleEndian.AppendUint64([]byte("CLNKTRC1"), total)
	return binary.LittleEndian.AppendUint64(hdr, count)
}

func TestTraceRejectsCorruption(t *testing.T) {
	good := writeTestTrace(t, []Access{{Write: true, Addr: 4, Value: 1, Cycle: 10}}, 100)
	bad := func(name string, data []byte) {
		t.Helper()
		if _, _, _, err := ReadTraceMeta(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
	// Bad magic.
	corrupt := bytes.Clone(good)
	corrupt[0] ^= 0xFF
	bad("bad magic", corrupt)
	// Truncated records and a truncated header.
	bad("truncated record", good[:len(good)-3])
	bad("truncated header", good[:30])
	// Non-monotonic stamps.
	bad("non-monotonic", writeTestTrace(t, []Access{{Addr: 4, Cycle: 10}, {Addr: 8, Cycle: 5}}, 100))
	// A stamp beyond the recorded total.
	bad("stamp beyond total", writeTestTrace(t, []Access{{Addr: 4, Cycle: 10}}, 9))
	// Empty input.
	bad("empty", nil)
	// A well-formed legacy v1 stream cannot be bound to a program, so it
	// is refused with a message that says how to recapture it.
	v1 := append(v1Header(100, 1), make([]byte, traceRecordSize)...)
	bad("v1", v1)
	if _, _, _, err := ReadTraceMeta(bytes.NewReader(v1)); err == nil ||
		!strings.Contains(err.Error(), "legacy") || !strings.Contains(err.Error(), "-save-trace") {
		t.Errorf("v1: err = %v, want a legacy trace to recapture with -save-trace", err)
	}
}

// hugeCountHeader is a bare v2 header (64 bytes) claiming 2^31 records.
func hugeCountHeader() []byte {
	var buf bytes.Buffer
	if err := WriteTraceMeta(&buf, nil, 100, testMeta); err != nil {
		panic(err)
	}
	hdr := buf.Bytes()
	binary.LittleEndian.PutUint64(hdr[16:], 1<<31) // record count
	return hdr
}

// TestTraceHugeCountHeaderBoundedAlloc: a bare v2 header claiming 2^31
// records must be rejected as truncated at the first record without the
// reader first allocating room for all the records it claims.
func TestTraceHugeCountHeaderBoundedAlloc(t *testing.T) {
	hdr := hugeCountHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadTraceMeta(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "truncated at record 0") {
		t.Fatalf("err = %v, want ErrBadTrace truncated at record 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("reading a %d-byte header allocated %d bytes, want < 4 MB", len(hdr), got)
	}
}

func TestTraceMetaRoundTrip(t *testing.T) {
	image := asmImage(traceTestOps()...)
	trace, total, err := CollectTrace(image, 10000)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{ImageDigest: ImageDigest(image), TextStart: 0x40, TextEnd: 0x80}
	got, gotTotal, gotMeta := roundTrip(t, trace, total, meta)
	if gotTotal != total || len(got) != len(trace) {
		t.Fatalf("round trip: %d/%d records, %d/%d cycles", len(got), len(trace), gotTotal, total)
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], trace[i])
		}
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: %+v != %+v", gotMeta, meta)
	}

	// The bound trace verifies against its own image and bounds...
	if err := gotMeta.Check(image, 0x40, 0x80); err != nil {
		t.Errorf("matching image rejected: %v", err)
	}
	// ...and is rejected against a different program or different bounds.
	other := append([]byte{}, image...)
	other[len(other)-1] ^= 0x01
	if err := gotMeta.Check(other, 0x40, 0x80); err == nil {
		t.Error("trace accepted against a different program image")
	} else if !errors.Is(err, ErrTraceMismatch) {
		t.Errorf("mismatch not reported as ErrTraceMismatch: %v", err)
	}
	if err := gotMeta.Check(image, 0x40, 0x84); err == nil {
		t.Error("trace accepted with different TEXT bounds")
	}
}

// FuzzReadTraceMeta feeds arbitrary bytes to the trace decoder. It must
// never panic, and a stream it accepts must decode to the same trace,
// total and meta after a WriteTraceMeta round trip. CI runs it as a 30 s
// smoke.
func FuzzReadTraceMeta(f *testing.F) {
	image := asmImage(traceTestOps()...)
	trace, total, err := CollectTrace(image, 10000)
	if err != nil {
		f.Fatal(err)
	}
	valid := writeTestTrace(f, trace, total)
	f.Add(valid)
	for _, n := range []int{0, 7, 8, 23, 24, 63, 64, 64 + traceRecordSize - 1, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(hugeCountHeader())
	f.Add(v1Header(100, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		trace, total, meta, err := ReadTraceMeta(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		got, gotTotal, gotMeta := roundTrip(t, trace, total, meta)
		if gotTotal != total || gotMeta != meta || len(got) != len(trace) {
			t.Fatalf("round trip: %d/%d records, total %d/%d, meta %+v/%+v",
				len(got), len(trace), gotTotal, total, gotMeta, meta)
		}
		for i := range trace {
			if got[i] != trace[i] {
				t.Fatalf("record %d: %+v != %+v", i, got[i], trace[i])
			}
		}
	})
}
