package armsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace files store a memory-access log plus the run's total cycle count,
// so expensive instruction-set simulations can be captured once and
// replayed through the policy simulator many times — the workflow of the
// paper's artifact, which passed Thumbulator logs to the Clank policy
// simulator.
//
// Version 2 (little-endian):
//
//	magic "CLNKTRC2" | uint64 totalCycles | uint64 count |
//	sha256 imageDigest (32 bytes) | uint32 textStart | uint32 textEnd |
//	count records
//
// The digest and TEXT bounds bind a trace to the program image it was
// captured from: replaying a trace against a different program silently
// produces garbage results (the detector classifies the wrong addresses,
// the monitor verifies the wrong values), so loaders refuse mismatches.
//
// Version 1 (magic "CLNKTRC1") lacked the binding header and is no longer
// read: such a trace cannot be checked against any program, so it must be
// recaptured.
//
// Each record is 25 bytes: flags(1) addr(4) value(4) prev(4) pc(4) cycle(8).

var traceMagicV2 = [8]byte{'C', 'L', 'N', 'K', 'T', 'R', 'C', '2'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("armsim: malformed trace file")

// ErrTraceMismatch reports a trace whose recorded provenance does not
// match the program it is being replayed against.
var ErrTraceMismatch = errors.New("armsim: trace does not match program")

const (
	traceHeaderSize = 8 + 8 + 8 + 32 + 4 + 4 // magic, total, count, digest, TEXT bounds
	traceRecordSize = 1 + 4 + 4 + 4 + 4 + 8
)

// TraceMeta binds a trace to the program image it was captured from.
type TraceMeta struct {
	ImageDigest [32]byte // SHA-256 of the program image bytes
	TextStart   uint32   // byte bounds of the image's TEXT segment
	TextEnd     uint32
}

// ImageDigest computes the digest TraceMeta records for an image.
func ImageDigest(image []byte) [32]byte { return sha256.Sum256(image) }

// Check verifies that a trace captured with this metadata replays
// faithfully against the given image and TEXT bounds.
func (m TraceMeta) Check(image []byte, textStart, textEnd uint32) error {
	if d := ImageDigest(image); d != m.ImageDigest {
		return fmt.Errorf("%w: image digest %x, trace was captured from %x",
			ErrTraceMismatch, d[:8], m.ImageDigest[:8])
	}
	if m.TextStart != textStart || m.TextEnd != textEnd {
		return fmt.Errorf("%w: TEXT bounds [%#x,%#x), trace recorded [%#x,%#x)",
			ErrTraceMismatch, textStart, textEnd, m.TextStart, m.TextEnd)
	}
	return nil
}

// WriteTraceMeta serializes a trace in the v2 format, binding it to the
// program it was captured from.
func WriteTraceMeta(w io.Writer, trace []Access, totalCycles uint64, meta TraceMeta) error {
	bw := bufio.NewWriter(w)
	var hdr [traceHeaderSize]byte
	copy(hdr[:], traceMagicV2[:])
	binary.LittleEndian.PutUint64(hdr[8:], totalCycles)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(trace)))
	copy(hdr[24:], meta.ImageDigest[:])
	binary.LittleEndian.PutUint32(hdr[56:], meta.TextStart)
	binary.LittleEndian.PutUint32(hdr[60:], meta.TextEnd)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [traceRecordSize]byte
	for _, a := range trace {
		rec[0] = 0
		if a.Write {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint32(rec[1:], a.Addr)
		binary.LittleEndian.PutUint32(rec[5:], a.Value)
		binary.LittleEndian.PutUint32(rec[9:], a.Prev)
		binary.LittleEndian.PutUint32(rec[13:], a.PC)
		binary.LittleEndian.PutUint64(rec[17:], a.Cycle)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceMeta deserializes a trace written by WriteTraceMeta; meta
// identifies the program it was captured from. A legacy v1 stream is
// rejected with ErrBadTrace.
func ReadTraceMeta(r io.Reader) ([]Access, uint64, TraceMeta, error) {
	br := bufio.NewReader(r)
	var hdr [traceHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	switch magic := string(hdr[:8]); magic {
	case string(traceMagicV2[:]):
	case "CLNKTRC1":
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: legacy v1 trace has no program binding; recapture it with -save-trace",
			ErrBadTrace)
	default:
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	if _, err := io.ReadFull(br, hdr[8:]); err != nil {
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: truncated header", ErrBadTrace)
	}
	total := binary.LittleEndian.Uint64(hdr[8:])
	count := binary.LittleEndian.Uint64(hdr[16:])
	meta := TraceMeta{
		ImageDigest: [32]byte(hdr[24:56]),
		TextStart:   binary.LittleEndian.Uint32(hdr[56:]),
		TextEnd:     binary.LittleEndian.Uint32(hdr[60:]),
	}
	const maxRecords = 1 << 31
	if count > maxRecords {
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, count)
	}
	// The header is untrusted: preallocate at most 1<<16 records (2 MB)
	// and let append grow the slice as records actually arrive, so a
	// short file claiming billions of records cannot demand gigabytes.
	trace := make([]Access, 0, min(count, 1<<16))
	var rec [traceRecordSize]byte
	var prevCycle uint64
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, 0, TraceMeta{}, fmt.Errorf("%w: truncated at record %d", ErrBadTrace, i)
		}
		a := Access{
			Write: rec[0]&1 != 0,
			Addr:  binary.LittleEndian.Uint32(rec[1:]),
			Size:  4,
			Value: binary.LittleEndian.Uint32(rec[5:]),
			Prev:  binary.LittleEndian.Uint32(rec[9:]),
			PC:    binary.LittleEndian.Uint32(rec[13:]),
			Cycle: binary.LittleEndian.Uint64(rec[17:]),
		}
		if a.Cycle < prevCycle {
			return nil, 0, TraceMeta{}, fmt.Errorf("%w: cycle stamps not monotonic at record %d", ErrBadTrace, i)
		}
		prevCycle = a.Cycle
		trace = append(trace, a)
	}
	if prevCycle > total {
		return nil, 0, TraceMeta{}, fmt.Errorf("%w: last stamp %d beyond total %d", ErrBadTrace, prevCycle, total)
	}
	return trace, total, meta, nil
}
