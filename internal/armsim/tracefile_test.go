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
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace, total); err != nil {
		t.Fatal(err)
	}
	got, gotTotal, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != total || len(got) != len(trace) {
		t.Fatalf("round trip: %d/%d records, %d/%d cycles", len(got), len(trace), gotTotal, total)
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], trace[i])
		}
	}
}

func TestTraceRoundTripQuick(t *testing.T) {
	prop := func(raw []uint32, total16 uint16) bool {
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
		if err := WriteTrace(&buf, trace, total); err != nil {
			return false
		}
		got, gotTotal, err := ReadTrace(&buf)
		if err != nil || gotTotal != total || len(got) != len(trace) {
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

func TestTraceRejectsCorruption(t *testing.T) {
	trace := []Access{{Write: true, Addr: 4, Value: 1, Cycle: 10}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace, 100); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated records.
	if _, _, err := ReadTrace(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated trace accepted")
	}
	// Non-monotonic stamps.
	two := []Access{{Addr: 4, Cycle: 10}, {Addr: 8, Cycle: 5}}
	buf.Reset()
	if err := WriteTrace(&buf, two, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTrace(&buf); err == nil {
		t.Error("non-monotonic trace accepted")
	}
	// Empty input.
	if _, _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestTraceHugeCountHeaderBoundedAlloc: a bare v1 header (24 bytes)
// claiming 2^31 records must be rejected as truncated at the first record
// without the reader first allocating room for all the records it claims.
func TestTraceHugeCountHeaderBoundedAlloc(t *testing.T) {
	hdr := make([]byte, 24)
	copy(hdr, traceMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], 100)    // total cycles
	binary.LittleEndian.PutUint64(hdr[16:], 1<<31) // record count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadTrace(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "truncated at record 0") {
		t.Fatalf("err = %v, want ErrBadTrace truncated at record 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("reading a 24-byte header allocated %d bytes, want < 4 MB", got)
	}
}

func TestTraceMetaRoundTrip(t *testing.T) {
	image := asmImage(columnarTestOps()...)
	trace, total, err := CollectTrace(image, 10000)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{ImageDigest: ImageDigest(image), TextStart: 0x40, TextEnd: 0x80}
	var buf bytes.Buffer
	if err := WriteTraceMeta(&buf, trace, total, meta); err != nil {
		t.Fatal(err)
	}
	got, gotTotal, gotMeta, err := ReadTraceMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != total || len(got) != len(trace) {
		t.Fatalf("round trip: %d/%d records, %d/%d cycles", len(got), len(trace), gotTotal, total)
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], trace[i])
		}
	}
	if gotMeta == nil || *gotMeta != meta {
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

	// ReadTrace (version-agnostic) also reads the v2 stream.
	got2, _, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got2) != len(trace) {
		t.Fatalf("ReadTrace on v2: %d records, err %v", len(got2), err)
	}

	// A legacy v1 stream reads back with nil meta.
	buf.Reset()
	if err := WriteTrace(&buf, trace, total); err != nil {
		t.Fatal(err)
	}
	_, _, v1meta, err := ReadTraceMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v1meta != nil {
		t.Fatalf("v1 stream produced meta %+v", v1meta)
	}
}
