// Package armsim implements a cycle-accurate instruction-set simulator for
// the ARMv6-M architecture with a Cortex-M0+ timing model. It is the
// execution substrate for the Clank reproduction: programs compiled by the
// ccc mini-C compiler run on this simulator, every data-memory access is
// visible to attached hardware models (the Clank buffers), and the cycle
// counter drives the power-failure model.
package armsim

import (
	"errors"
	"fmt"
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
)

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

	// Outputs accumulates every word written to the output port, in order.
	Outputs []uint32

	// OnOutput, when non-nil, observes each output word as it is written.
	OnOutput func(v uint32)

	// onWrite, when non-nil, observes every mutation of the backing store
	// (byte range addr..addr+size). The predecode cache registers its
	// invalidation here so cached instructions never go stale — Memory is
	// the single choke point for all content changes: data stores,
	// checkpoint drains (WriteWord), image loads, resets, and restores.
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

// Reset zeroes memory contents and clears recorded outputs.
func (m *Memory) Reset() {
	for i := range m.data {
		m.data[i] = 0
	}
	m.Outputs = m.Outputs[:0]
	if m.onWrite != nil {
		m.onWrite(0, MemSize)
	}
}

// LoadImage copies img into memory starting at addr.
func (m *Memory) LoadImage(addr uint32, img []byte) error {
	if int(addr)+len(img) > len(m.data) {
		return fmt.Errorf("armsim: image of %d bytes at %#x exceeds memory", len(img), addr)
	}
	copy(m.data[addr:], img)
	if m.onWrite != nil && len(img) > 0 {
		m.onWrite(addr, uint32(len(img)))
	}
	return nil
}

// ResetTo restores memory to exactly the state of a freshly loaded image —
// img at address 0, zeros beyond it — and clears recorded outputs, WITHOUT
// firing the write hook. It exists for the fleet engine's per-device reset:
// when the attached decode cache is a frozen SharedProgram cache built from
// this very image, the restored bytes match every cached entry by
// construction, so invalidation would be both unnecessary and illegal (a
// frozen cache must never mutate). Callers for whom that precondition does
// not hold must use Reset + LoadImage instead.
func (m *Memory) ResetTo(img []byte) {
	n := copy(m.data, img)
	clear(m.data[n:])
	m.Outputs = m.Outputs[:0]
}

// Bytes exposes the raw backing store (for checkpoint slots and loaders).
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
	if m.onWrite != nil {
		m.onWrite(a, 4)
	}
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
	if m.onWrite != nil {
		m.onWrite(addr, uint32(size))
	}
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
	if m.onWrite != nil {
		m.onWrite(addr, uint32(size))
	}
	return nil
}

// Fetch16 implements Bus.
func (m *Memory) Fetch16(addr uint32) (uint16, error) {
	if !m.inRAM(addr, 2) {
		return 0, fmt.Errorf("%w: fetch at %#x", ErrBusFault, addr)
	}
	return uint16(m.data[addr]) | uint16(m.data[addr+1])<<8, nil
}
