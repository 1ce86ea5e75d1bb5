package armsim

import (
	"bytes"
	"testing"
)

// hookRange is one write-hook call.
type hookRange struct{ addr, size uint32 }

// fuzzAddr maps three fuzz bytes to an address in one of four regions: the
// image (text) bytes, the top page, anywhere, or just below a page
// boundary, where an unaligned store spans two pages.
func fuzzAddr(region, a, b, c byte, imgLen int) uint32 {
	v := uint32(a)<<16 | uint32(b)<<8 | uint32(c)
	switch region & 3 {
	case 0:
		return v % uint32(max(imgLen, 1))
	case 1:
		return MemSize - pageSize + v%pageSize
	case 2:
		return v % MemSize
	default:
		return (v%(MemSize/pageSize-1)+1)<<pageShift - 1 - uint32(c&3)
	}
}

// FuzzResetTo drives one memory through a first image and a stream of
// Store, WriteWord and LoadImage calls (with restores of the first image
// interleaved), then restores a second image. Memory must then hold the
// second image followed by zeros with no outputs, the write-hook ranges
// must cover every byte the restore changed, and each range must start on
// a changed byte. Each image is its fuzzed bytes after pad zero bytes, so
// images reach past the first page.
func FuzzResetTo(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint16(0), []byte{5, 6, 7}, uint16(0), []byte{})
	f.Add([]byte{0xAA}, uint16(5000), []byte{0xBB, 0xCC}, uint16(9000),
		[]byte{0, 0, 0, 1, 2, 9, 9, 9, 9, 4, 1, 0, 0, 0, 3, 3, 3, 3})
	f.Add([]byte("text"), uint16(10), []byte("text"), uint16(10),
		[]byte{5, 0, 0, 2, 1, 7, 7, 7, 7, 2, 0xFF, 0xFF, 0xFF, 2, 1, 2, 3, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9}, uint16(0), []byte{}, uint16(65535),
		[]byte{12, 3, 1, 0, 4, 0xDE, 0xAD, 0xBE, 0xEF, 6, 0, 0, 0, 0, 1, 2, 3, 4, 1, 0, 0, 0, 0, 8, 8, 8, 8})
	// A restore of the first image, then a second image over fewer pages:
	// the first image's pages must still be cleared.
	f.Add([]byte{1}, uint16(5000), []byte{}, uint16(0), []byte{3, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw1 []byte, pad1 uint16, raw2 []byte, pad2 uint16, ops []byte) {
		img1 := append(make([]byte, pad1), raw1...)
		img2 := append(make([]byte, pad2), raw2...)
		mem := NewMemory()
		if err := mem.LoadImage(0, img1); err != nil {
			t.Skip("first image exceeds memory")
		}
		// Each op is 9 bytes: kind (low 2 bits) and region (next 2 bits),
		// three address bytes, a size selector and four value bytes.
		for ; len(ops) >= 9; ops = ops[9:] {
			addr := fuzzAddr(ops[0]>>2, ops[1], ops[2], ops[3], len(img1))
			v := uint32(ops[5]) | uint32(ops[6])<<8 | uint32(ops[7])<<16 | uint32(ops[8])<<24
			switch ops[0] & 3 {
			case 0:
				_ = mem.Store(addr, []uint8{1, 2, 4}[ops[4]%3], v, 0) // a bus fault leaves memory as it was
			case 1:
				mem.WriteWord(addr, v)
			case 2:
				_ = mem.LoadImage(addr, ops[5:5+ops[4]%5]) // an image past the end is refused whole
			default:
				if err := mem.ResetTo(img1); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = mem.Store(OutputBase, 4, 1, 0)

		before := bytes.Clone(mem.Bytes())
		var hooks []hookRange
		mem.SetWriteHook(func(addr, size uint32) { hooks = append(hooks, hookRange{addr, size}) })
		if err := mem.ResetTo(img2); err != nil {
			if len(img2) <= MemSize {
				t.Fatalf("ResetTo refused a %d-byte image: %v", len(img2), err)
			}
			return
		}

		want := make([]byte, MemSize)
		copy(want, img2)
		if got := mem.Bytes(); !bytes.Equal(got, want) {
			i := firstDiff(got, want)
			t.Fatalf("memory[%#x] = %#x after ResetTo, want %#x", i, got[i], want[i])
		}
		if len(mem.Outputs) != 0 {
			t.Fatalf("ResetTo left %d outputs", len(mem.Outputs))
		}
		covered := make([]bool, MemSize)
		for _, h := range hooks {
			if h.size == 0 || h.addr+h.size > MemSize {
				t.Fatalf("hook range [%#x, +%#x) is empty or leaves memory", h.addr, h.size)
			}
			if before[h.addr] == want[h.addr] {
				t.Fatalf("hook range [%#x, +%#x) starts on an unchanged byte", h.addr, h.size)
			}
			for a := h.addr; a < h.addr+h.size; a++ {
				covered[a] = true
			}
		}
		for a := range before {
			if before[a] != want[a] && !covered[a] {
				t.Fatalf("changed byte %#x is outside every hook range", a)
			}
		}
	})
}

// TestResetToShrinkingImage restores a multi-page image, then images over
// fewer pages: each restore must clear the pages only the previous image
// covered, though no write touched them since.
func TestResetToShrinkingImage(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 3*pageSize+17)
	mem := NewMemory()
	for i, img := range [][]byte{big, {1, 2, 3}, big, nil} {
		if err := mem.ResetTo(img); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, MemSize)
		copy(want, img)
		if got := mem.Bytes(); !bytes.Equal(got, want) {
			j := firstDiff(got, want)
			t.Fatalf("restore %d: memory[%#x] = %#x, want %#x", i, j, got[j], want[j])
		}
	}
}
