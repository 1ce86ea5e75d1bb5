// Package armsim implements a cycle-accurate instruction-set simulator for
// the ARMv6-M architecture with a Cortex-M0+ timing model. It is the
// execution substrate for the Clank reproduction: programs compiled by the
// ccc mini-C compiler run on this simulator, every data-memory access is
// visible to attached hardware models (the Clank buffers), and the cycle
// counter drives the power-failure model.
package armsim

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
)

// Memory geometry. The modeled device mirrors the paper's target: a 256 KB
// wholly non-volatile main memory starting at address zero, holding vectors,
// text, data, heap, and stack. Writes outside this range hit the output port
// (the output-commit problem, paper section 3.3).
const (
	MemBase = 0x00000000
	MemSize = 256 * 1024

	// OutputBase is the word-wide memory-mapped output port. Any store to
	// this region is an externally visible output.
	OutputBase = 0x40000000
	OutputSize = 0x100

	// ResetTo restores 4 KB pages: main memory's 64 fit one uint64 bitmap.
	pageShift = 12
	pageSize  = 1 << pageShift
)

var zeroPage [pageSize]byte // ResetTo's source beyond an image's end

// ErrBusFault reports an access outside every mapped region.
var ErrBusFault = errors.New("armsim: bus fault")

// Access describes one data-memory access as seen by attached hardware.
// Addresses are byte addresses; Clank itself tracks word granularity.
type Access struct {
	Write bool
	Addr  uint32
	Size  uint8  // 1, 2, or 4 bytes
	Value uint32 // value read, or value being written
	Prev  uint32 // for writes: prior value of the containing word
	PC    uint32 // address of the accessing instruction
	Cycle uint64 // CPU cycle counter when the access issued
}

// WordAddr returns the 30-bit word address of the access (paper section
// 3.1.1: Clank tracks memory at word granularity; a byte access marks the
// whole containing word).
func (a Access) WordAddr() uint32 { return a.Addr >> 2 }

// Bus is the CPU's view of the memory system. A Bus implementation may veto
// an access by returning an error; the CPU then aborts the current
// instruction without architectural side effects and leaves PC pointing at
// it, so the instruction re-executes after the veto cause (typically a
// checkpoint) is handled.
type Bus interface {
	Load(addr uint32, size uint8, pc uint32) (uint32, error)
	Store(addr uint32, size uint8, value uint32, pc uint32) error
	// Fetch16 reads one halfword of instruction stream. Instruction fetch
	// is not a tracked data access.
	Fetch16(addr uint32) (uint16, error)
}

// Memory is the flat non-volatile main memory plus the output port. The
// zero value is not usable; call NewMemory.
type Memory struct {
	data []byte

	// dirty marks each page that may hold a non-zero byte (the last ResetTo
	// image's pages, and any written since); ResetTo skips the zero rest.
	dirty uint64

	// Outputs accumulates every word written to the output port, in order.
	Outputs []uint32

	// OnOutput, when non-nil, observes each output word as it is written.
	OnOutput func(v uint32)

	// onWrite, when non-nil, observes every mutation of the backing store
	// (byte range addr..addr+size). The predecode cache registers its
	// invalidation here so cached instructions never go stale — Memory is
	// the single choke point for all content changes: data stores,
	// checkpoint drains (WriteWord), image loads, and restores.
	onWrite func(addr, size uint32)
}

// SetWriteHook registers fn to observe every mutation of memory contents.
// Only one hook is supported (the predecode cache); a second call replaces
// the first.
func (m *Memory) SetWriteHook(fn func(addr, size uint32)) { m.onWrite = fn }

// NewMemory returns a zeroed 256 KB memory.
func NewMemory() *Memory {
	return &Memory{data: make([]byte, MemSize)}
}

// wrote records a write of size <= pageSize bytes at addr: it marks addr's
// page and the next, which the bytes may reach, dirty and fires the hook.
func (m *Memory) wrote(addr, size uint32) {
	m.dirty |= 3 << (addr >> pageShift)
	if m.onWrite != nil {
		m.onWrite(addr, size)
	}
}

// LoadImage copies img into memory starting at addr.
func (m *Memory) LoadImage(addr uint32, img []byte) error {
	if int(addr)+len(img) > len(m.data) {
		return fmt.Errorf("armsim: image of %d bytes at %#x exceeds memory", len(img), addr)
	}
	copy(m.data[addr:], img)
	for a, end := addr, addr+uint32(len(img)); a < end; a += pageSize {
		m.wrote(a, min(pageSize, end-a))
	}
	return nil
}

// ResetTo restores memory to exactly the state of a freshly loaded image —
// img at address 0, zeros beyond it — and clears recorded outputs. It is
// the one image restore, and it keeps an attached decode cache coherent by
// itself: it visits only the pages img covers or that may still hold
// non-zero bytes (the previous image's pages and any a write touched since),
// and fires the write hook once per page that differs,
// from that page's first changed byte. Restoring the bytes memory already
// holds fires nothing, so a frozen shared cache survives it.
func (m *Memory) ResetTo(img []byte) error {
	if len(img) > len(m.data) {
		return fmt.Errorf("armsim: image of %d bytes exceeds memory", len(img))
	}
	m.Outputs = m.Outputs[:0]
	imgPages := uint64(1)<<((len(img)+pageSize-1)>>pageShift) - 1
	pages := m.dirty | imgPages
	for m.dirty = imgPages; pages != 0; pages &= pages - 1 {
		base := bits.TrailingZeros64(pages) << pageShift
		page, src := m.data[base:base+pageSize], img[min(base, len(img)):min(base+pageSize, len(img))]
		n := len(src)
		f := firstDiff(page[:n], src)
		if f == n {
			f += firstDiff(page[n:], zeroPage[n:])
		}
		if f == pageSize {
			continue
		}
		copy(page[f:], src[min(f, n):])
		clear(page[max(f, n):])
		if m.onWrite != nil {
			m.onWrite(uint32(base+f), uint32(pageSize-f))
		}
	}
	return nil
}

// firstDiff returns the index of the first byte at which a and b (of equal
// length) differ, or len(a). It skips equal slices and 64-byte chunks whole.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return len(a)
	}
	i := 0
	for i+64 <= len(a) && bytes.Equal(a[i:i+64], b[i:i+64]) {
		i += 64
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// Bytes exposes the raw backing store for inspection. It is read-only: a
// write through it would bypass both the write hook and the dirty-page
// bitmap, leaving decode caches stale and ResetTo incomplete.
func (m *Memory) Bytes() []byte { return m.data }

func (m *Memory) inRAM(addr uint32, size uint8) bool {
	return addr >= MemBase && addr+uint32(size) <= MemBase+MemSize && addr+uint32(size) > addr
}

func (m *Memory) isOutput(addr uint32) bool {
	return addr >= OutputBase && addr < OutputBase+OutputSize
}

// ReadWord reads an aligned word without any access tracking.
func (m *Memory) ReadWord(addr uint32) uint32 {
	a := addr &^ 3
	if !m.inRAM(a, 4) {
		return 0
	}
	return uint32(m.data[a]) | uint32(m.data[a+1])<<8 | uint32(m.data[a+2])<<16 | uint32(m.data[a+3])<<24
}

// WriteWord writes an aligned word without any access tracking.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	a := addr &^ 3
	if !m.inRAM(a, 4) {
		return
	}
	m.data[a] = byte(v)
	m.data[a+1] = byte(v >> 8)
	m.data[a+2] = byte(v >> 16)
	m.data[a+3] = byte(v >> 24)
	m.wrote(a, 4)
}

// WordLane is a load's value as a word-granular monitored bus serves it
// from word, the aligned word containing addr: the addressed byte or
// halfword lane, or the whole word for a word load (aligned or not).
func WordLane(word, addr uint32, size uint8) uint32 {
	sh := (addr & 3) * 8
	switch size {
	case 1:
		return (word >> sh) & 0xFF
	case 2:
		return (word >> sh) & 0xFFFF
	default:
		return word
	}
}

// MergeLane is word with a store's lane replaced: the low byte or
// halfword of value at addr's byte offset, or the whole of value for a word
// store (aligned or not) — the word a word-granular monitored bus sees a
// sub-word store write.
func MergeLane(word, addr uint32, size uint8, value uint32) uint32 {
	sh := (addr & 3) * 8
	switch size {
	case 1:
		return word&^(0xFF<<sh) | (value&0xFF)<<sh
	case 2:
		return word&^(0xFFFF<<sh) | (value&0xFFFF)<<sh
	default:
		return value
	}
}

// storeRAM is Store for an address the caller proved lies below MemSize-3
// (an access port's certified store): it writes the low size bytes of v at
// addr and fires the write hook.
func (m *Memory) storeRAM(addr uint32, size uint8, v uint32) {
	switch size {
	case 4:
		m.data[addr] = byte(v)
		m.data[addr+1] = byte(v >> 8)
		m.data[addr+2] = byte(v >> 16)
		m.data[addr+3] = byte(v >> 24)
	case 2:
		m.data[addr] = byte(v)
		m.data[addr+1] = byte(v >> 8)
	default:
		m.data[addr] = byte(v)
	}
	m.wrote(addr, uint32(size))
}

// Load implements Bus.
func (m *Memory) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	if m.isOutput(addr) {
		return 0, nil
	}
	if !m.inRAM(addr, size) {
		return 0, fmt.Errorf("%w: load%d at %#x (pc %#x)", ErrBusFault, size*8, addr, pc)
	}
	switch size {
	case 1:
		return uint32(m.data[addr]), nil
	case 2:
		return uint32(m.data[addr]) | uint32(m.data[addr+1])<<8, nil
	case 4:
		return uint32(m.data[addr]) | uint32(m.data[addr+1])<<8 |
			uint32(m.data[addr+2])<<16 | uint32(m.data[addr+3])<<24, nil
	}
	return 0, fmt.Errorf("%w: bad size %d", ErrBusFault, size)
}

// Store implements Bus.
func (m *Memory) Store(addr uint32, size uint8, value uint32, pc uint32) error {
	if m.isOutput(addr) {
		m.Outputs = append(m.Outputs, value)
		if m.OnOutput != nil {
			m.OnOutput(value)
		}
		return nil
	}
	if !m.inRAM(addr, size) {
		return fmt.Errorf("%w: store%d at %#x (pc %#x)", ErrBusFault, size*8, addr, pc)
	}
	switch size {
	case 1:
		m.data[addr] = byte(value)
	case 2:
		m.data[addr] = byte(value)
		m.data[addr+1] = byte(value >> 8)
	case 4:
		m.data[addr] = byte(value)
		m.data[addr+1] = byte(value >> 8)
		m.data[addr+2] = byte(value >> 16)
		m.data[addr+3] = byte(value >> 24)
	default:
		return fmt.Errorf("%w: bad size %d", ErrBusFault, size)
	}
	m.wrote(addr, uint32(size))
	return nil
}

// Fetch16 implements Bus.
func (m *Memory) Fetch16(addr uint32) (uint16, error) {
	if !m.inRAM(addr, 2) {
		return 0, fmt.Errorf("%w: fetch at %#x", ErrBusFault, addr)
	}
	return uint16(m.data[addr]) | uint16(m.data[addr+1])<<8, nil
}
