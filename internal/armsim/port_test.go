package armsim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/accfilter"
)

// countBus is a Bus over a Memory that counts the data accesses reaching it.
type countBus struct {
	mem           *Memory
	loads, stores int
}

func (b *countBus) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	b.loads++
	return b.mem.Load(addr, size, pc)
}

func (b *countBus) Store(addr uint32, size uint8, v uint32, pc uint32) error {
	b.stores++
	return b.mem.Store(addr, size, v, pc)
}

func (b *countBus) Fetch16(addr uint32) (uint16, error) { return b.mem.Fetch16(addr) }

// wbRig is a CPU on a countBus with a hand-built access port: empty filter
// tag arrays, an index under epoch 1, and four Write-back slots.
type wbRig struct {
	cpu      *CPU
	mem      *Memory
	bus      *countBus
	rd, wr   accfilter.Tags
	idx      accfilter.Index
	epoch    uint64
	slots    [4]accfilter.Slot
	accesses int
	hooks    int // write-hook firings
}

func newWBRig() *wbRig {
	r := &wbRig{mem: NewMemory(), rd: accfilter.Empty, wr: accfilter.Empty, epoch: accfilter.Tag(1)}
	r.bus = &countBus{mem: r.mem}
	r.cpu = NewCPU(r.bus)
	r.mem.SetWriteHook(func(addr, size uint32) { r.hooks++ })
	r.cpu.SetAccessPort(accfilter.Port{
		Read: &r.rd, Write: &r.wr, Accesses: &r.accesses,
		Index: &r.idx, Epoch: &r.epoch, Slots: r.slots[:],
	}, r.mem)
	return r
}

// put places word in Write-back slot i with value val, under the current
// epoch.
func (r *wbRig) put(word uint32, i int, val uint32, dirty bool) {
	r.slots[i] = accfilter.Slot{Word: word, Val: val, Dirty: dirty}
	kind := accfilter.KindWBC
	if dirty {
		kind = accfilter.KindWBD
	}
	if !r.idx.Put(word, kind, i, r.epoch) {
		panic("index collision in test setup")
	}
}

// snap is the observable state a served or bus-bound access moves.
type snap struct{ accesses, loads, stores, hooks int }

func (r *wbRig) snap() snap { return snap{r.accesses, r.bus.loads, r.bus.stores, r.hooks} }

// rigState is everything an access can move: the counts, the slots and
// the two memory words from addr.
type rigState struct {
	snap
	slots  [4]accfilter.Slot
	w0, w1 uint32
}

func (r *wbRig) state(addr uint32) rigState {
	return rigState{r.snap(), r.slots, r.mem.ReadWord(addr), r.mem.ReadWord(addr + 4)}
}

// checkUnaligned asserts that an access at a misaligned address in the
// word at addr failed with ErrUnaligned and moved nothing: no access
// counted, no bus access, no write hook, slots and memory unchanged.
func (r *wbRig) checkUnaligned(t *testing.T, name string, err error, addr uint32, before rigState) {
	t.Helper()
	if !errors.Is(err, ErrUnaligned) {
		t.Errorf("%s: err = %v, want ErrUnaligned", name, err)
	}
	if got := r.state(addr); got != before {
		t.Errorf("%s: faulting access moved %+v to %+v", name, before, got)
	}
}

// laneRef and mergeRef are the reference lane arithmetic, written byte by
// byte: the size-byte lane of word at addr's offset (a load's value), and
// word with that lane replaced by value's low bytes (a store's merged
// word). addr is size-aligned: a misaligned access faults before either.
func laneRef(word, addr uint32, size uint8) uint32 {
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		v |= (word >> (8 * (addr&3 + i)) & 0xFF) << (8 * i)
	}
	return v
}

func mergeRef(word, addr uint32, size uint8, value uint32) uint32 {
	for i := uint32(0); i < uint32(size); i++ {
		sh := 8 * (addr&3 + i)
		word = word&^(0xFF<<sh) | (value>>(8*i)&0xFF)<<sh
	}
	return word
}

// TestAccessPortWriteBack pins the Write-back half of the access port
// (SetAccessPort): after a filter miss, a word the index places in a dirty
// slot is loaded from and stored into the slot, and a store to a word in a
// clean slot completes as a memory store when the merged word equals the
// slot's saved value. Each served access counts exactly one access and
// reaches neither the Bus nor — for dirty stores — memory or its write
// hook. Everything the index does not certify reaches the Bus uncounted.
// A halfword or word access at a misaligned offset faults before the port
// sees it.
func TestAccessPortWriteBack(t *testing.T) {
	const (
		base   = 0x8000
		memVal = 0x11223344
		wbVal  = 0xA5B6C7D8
	)
	sizes := []uint8{1, 2, 4}

	t.Run("dirty_load", func(t *testing.T) {
		for _, size := range sizes {
			for off := uint32(0); off < 4; off++ {
				r := newWBRig()
				r.mem.WriteWord(base, memVal)
				r.put(base>>2, 2, wbVal, true)
				before, st := r.snap(), r.state(base)
				v, err := r.cpu.pdLoad(base+off, size, 0)
				if off%uint32(size) != 0 {
					r.checkUnaligned(t, fmt.Sprintf("load%d at +%d", size*8, off), err, base, st)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := laneRef(wbVal, base+off, size); v != want {
					t.Errorf("load%d at +%d = %#x, want the slot's lane %#x", size*8, off, v, want)
				}
				if got, want := r.snap(), (snap{before.accesses + 1, before.loads, before.stores, before.hooks}); got != want {
					t.Errorf("load%d at +%d: %+v, want %+v (one access, no bus)", size*8, off, got, want)
				}
			}
		}
	})

	t.Run("dirty_store", func(t *testing.T) {
		for _, size := range sizes {
			for off := uint32(0); off < 4; off++ {
				r := newWBRig()
				r.mem.WriteWord(base, memVal)
				r.put(base>>2, 1, wbVal, true)
				before, st := r.snap(), r.state(base)
				const v = 0x9E8F7061
				err := r.cpu.pdStore(base+off, size, v, 0)
				if off%uint32(size) != 0 {
					r.checkUnaligned(t, fmt.Sprintf("store%d at +%d", size*8, off), err, base, st)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if got, want := r.slots[1].Val, mergeRef(wbVal, base+off, size, v); got != want {
					t.Errorf("store%d at +%d left the slot %#x, want %#x", size*8, off, got, want)
				}
				if !r.slots[1].Dirty || r.slots[1].Word != base>>2 {
					t.Errorf("store%d at +%d changed the slot's word or dirty bit: %+v", size*8, off, r.slots[1])
				}
				if got := r.mem.ReadWord(base); got != memVal {
					t.Errorf("store%d at +%d wrote memory: %#x", size*8, off, got)
				}
				if got, want := r.snap(), (snap{before.accesses + 1, before.loads, before.stores, before.hooks}); got != want {
					t.Errorf("store%d at +%d: %+v, want %+v (one access, no bus, no write hook)", size*8, off, got, want)
				}
			}
		}
	})

	t.Run("clean_store", func(t *testing.T) {
		for _, size := range sizes {
			for off := uint32(0); off < 4; off++ {
				name := fmt.Sprintf("store%d at +%d", size*8, off)
				if off%uint32(size) != 0 {
					// Misaligned: faults even when it rewrites the lane it
					// covers with memory's own bytes, a false write.
					r := newWBRig()
					r.mem.WriteWord(base, memVal)
					r.put(base>>2, 3, memVal, false)
					st := r.state(base)
					r.checkUnaligned(t, name, r.cpu.pdStore(base+off, size, laneRef(memVal, base+off, size), 0), base, st)
					continue
				}
				// Equal: the stored lane rewrites what the slot saved. The
				// slot's lane differs from memory's, so only a compare of
				// the merged word — not of memory, nor of the bare value —
				// certifies it.
				r := newWBRig()
				r.mem.WriteWord(base, memVal)
				v := laneRef(wbVal, base+off, size)
				saved := mergeRef(memVal, base+off, size, v)
				r.put(base>>2, 3, saved, false)
				before := r.snap()
				if err := r.cpu.pdStore(base+off, size, v, 0); err != nil {
					t.Fatal(err)
				}
				// Memory as the Bus's store leaves it.
				ref := NewMemory()
				ref.WriteWord(base, memVal)
				if err := ref.Store(base+off, size, v, 0); err != nil {
					t.Fatal(err)
				}
				for _, a := range []uint32{base, base + 4} {
					if got, want := r.mem.ReadWord(a), ref.ReadWord(a); got != want {
						t.Errorf("%s (false write): memory word %#x is %#x, want %#x", name, a, got, want)
					}
				}
				if r.slots[3] != (accfilter.Slot{Word: base >> 2, Val: saved}) {
					t.Errorf("%s (false write) changed the slot: %+v", name, r.slots[3])
				}
				if got, want := r.snap(), (snap{before.accesses + 1, before.loads, before.stores, before.hooks + 1}); got != want {
					t.Errorf("%s (false write): %+v, want %+v (one access, no bus, one memory write)", name, got, want)
				}

				// Unequal: the merged word differs from the saved value.
				r = newWBRig()
				r.mem.WriteWord(base, memVal)
				r.put(base>>2, 3, memVal, false)
				before = r.snap()
				if err := r.cpu.pdStore(base+off, size, ^laneRef(memVal, base+off, size), 0); err != nil {
					t.Fatal(err)
				}
				if got, want := r.snap(), (snap{before.accesses, before.loads, before.stores + 1, before.hooks + 1}); got != want {
					t.Errorf("%s (changing write): %+v, want %+v (the bus's store, no port count)", name, got, want)
				}
				if r.slots[3].Val != memVal {
					t.Errorf("%s (changing write) changed the slot: %+v", name, r.slots[3])
				}
			}
		}
	})

	// Accesses the port must not certify; each reaches the Bus once and
	// counts nothing.
	for _, tc := range []struct {
		name  string
		setup func(r *wbRig) uint32 // returns the address to access
	}{
		{"clean_load", func(r *wbRig) uint32 { r.put(base>>2, 0, memVal, false); return base }},
		{"stale_epoch", func(r *wbRig) uint32 { r.put(base>>2, 0, wbVal, true); r.epoch = accfilter.Tag(2); return base }},
		{"colliding_word", func(r *wbRig) uint32 {
			r.put(base>>2, 0, wbVal, true)
			return base + 4*accfilter.IndexEntries
		}},
		{"empty_index", func(r *wbRig) uint32 { return base }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, store := range []bool{false, true} {
				if tc.name == "clean_load" && store {
					continue // covered by clean_store
				}
				r := newWBRig()
				r.mem.WriteWord(base, memVal)
				r.mem.WriteWord(base+4*accfilter.IndexEntries, memVal)
				addr := tc.setup(r)
				before := r.snap()
				want := before
				var err error
				if store {
					err = r.cpu.pdStore(addr, 4, memVal^1, 0)
					want.stores++
					want.hooks++
				} else {
					var v uint32
					v, err = r.cpu.pdLoad(addr, 4, 0)
					want.loads++
					if v != memVal {
						t.Errorf("load = %#x, want memory's %#x", v, memVal)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := r.snap(); got != want {
					t.Errorf("store=%v: %+v, want %+v (one bus access, no port count)", store, got, want)
				}
			}
		})
	}

	t.Run("multi", func(t *testing.T) {
		// A STM/PUSH burst over a dirty word, a filter hit and a miss, then
		// the matching LDM/POP: the dirty and filter-hit words complete in
		// the loop, the miss crosses the Bus, and the dirty word round-trips
		// through its slot.
		r := newWBRig()
		r.put(base>>2, 0, wbVal, true)
		r.rd[(base+4)>>2&accfilter.Mask] = (base + 4) >> 2
		r.wr[(base+4)>>2&accfilter.Mask] = (base + 4) >> 2
		r.cpu.R[1], r.cpu.R[2], r.cpu.R[3] = 0x101, 0x202, 0x303
		before := r.snap()
		if _, err := r.cpu.storeMulti(base, 1<<1|1<<2|1<<3, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := r.snap(), (snap{before.accesses + 2, before.loads, before.stores + 1, before.hooks + 2}); got != want {
			t.Errorf("storeMulti: %+v, want %+v", got, want)
		}
		if r.slots[0].Val != 0x101 || r.mem.ReadWord(base) != 0 {
			t.Errorf("storeMulti: slot %#x, memory %#x; want the slot to take r1 and memory untouched", r.slots[0].Val, r.mem.ReadWord(base))
		}
		before = r.snap()
		if _, err := r.cpu.loadMulti(base, 1<<4|1<<5|1<<6, 0); err != nil {
			t.Fatal(err)
		}
		if r.cpu.R[4] != 0x101 || r.cpu.R[5] != 0x202 || r.cpu.R[6] != 0x303 {
			t.Errorf("loadMulti: r4-r6 = %#x %#x %#x, want 0x101 0x202 0x303", r.cpu.R[4], r.cpu.R[5], r.cpu.R[6])
		}
		if got, want := r.snap(), (snap{before.accesses + 2, before.loads + 1, before.stores, before.hooks}); got != want {
			t.Errorf("loadMulti: %+v, want %+v", got, want)
		}
	})
}

// TestAccessPortTagless pins a port without filter tag arrays, the shape
// of a privatizing write buffer's (clank.WriteBuf.Port): it serves loads
// and stores of dirty Write-back words and TEXT literal loads, and — while
// its index is complete — loads of words the index does not name, each
// counting one access with no Bus call, and nothing else. A clean-slot
// false write, a clean-slot load, a load that misses an incomplete index
// and a store that misses the index each reach the Bus exactly once and
// count nothing.
func TestAccessPortTagless(t *testing.T) {
	const (
		base   = 0x8000
		memVal = 0x11223344
		wbVal  = 0xA5B6C7D8
	)
	var complete bool
	rig := func() *wbRig {
		r := newWBRig()
		complete = false
		r.cpu.SetAccessPort(accfilter.Port{
			Accesses: &r.accesses, Index: &r.idx, Epoch: &r.epoch, Slots: r.slots[:],
			Complete: &complete,
		}, r.mem)
		r.mem.WriteWord(base, memVal)
		return r
	}

	t.Run("dirty", func(t *testing.T) {
		for _, size := range []uint8{1, 2, 4} {
			r := rig()
			r.put(base>>2, 2, wbVal, true)
			before := r.snap()
			v, err := r.cpu.pdLoad(base, size, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := laneRef(wbVal, base, size); v != want {
				t.Errorf("load%d = %#x, want the slot's lane %#x", size*8, v, want)
			}
			if err := r.cpu.pdStore(base, size, 0x9E8F7061, 0); err != nil {
				t.Fatal(err)
			}
			if got, want := r.slots[2].Val, mergeRef(wbVal, base, size, 0x9E8F7061); got != want {
				t.Errorf("store%d left the slot %#x, want %#x", size*8, got, want)
			}
			if got, want := r.snap(), (snap{before.accesses + 2, before.loads, before.stores, before.hooks}); got != want {
				t.Errorf("size %d: %+v, want %+v (two accesses, no bus, no write hook)", size, got, want)
			}
			if got := r.mem.ReadWord(base); got != memVal {
				t.Errorf("store%d wrote memory: %#x", size*8, got)
			}
		}
	})

	// Loads served from memory in the loop: one access, no Bus call, the
	// memory word's lane.
	for _, tc := range []struct {
		name string
		load func(r *wbRig, addr uint32, size uint8) (uint32, error)
	}{
		{"text_literal", func(r *wbRig, addr uint32, _ uint8) (uint32, error) { return r.cpu.loadTextLit(addr, 0) }},
		{"complete_index_miss", func(r *wbRig, addr uint32, size uint8) (uint32, error) {
			complete = true
			r.put(base>>2+1, 0, wbVal, true) // another word's live entry
			return r.cpu.pdLoad(addr, size, 0)
		}},
		{"complete_index_stale_epoch", func(r *wbRig, addr uint32, size uint8) (uint32, error) {
			complete = true
			r.put(base>>2, 0, wbVal, true)
			r.epoch = accfilter.Tag(2)
			return r.cpu.pdLoad(addr, size, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []uint8{1, 2, 4} {
				if tc.name == "text_literal" && size != 4 {
					continue // literal loads are word loads
				}
				r := rig()
				before := r.snap()
				v, err := tc.load(r, base, size)
				if err != nil {
					t.Fatal(err)
				}
				if want := laneRef(memVal, base, size); v != want {
					t.Errorf("load%d = %#x, want memory's lane %#x", size*8, v, want)
				}
				if got, want := r.snap(), (snap{before.accesses + 1, before.loads, before.stores, before.hooks}); got != want {
					t.Errorf("load%d: %+v, want %+v (one access, no bus)", size*8, got, want)
				}
			}
		})
	}

	// Accesses the tagless port must not serve: the index misses here
	// are a load under an incomplete index and a store under a complete
	// one.
	for _, tc := range []struct {
		name          string
		access        func(r *wbRig) error
		loads, stores int
	}{
		{"clean_false_write", func(r *wbRig) error {
			r.put(base>>2, 1, memVal, false)
			return r.cpu.pdStore(base, 4, memVal, 0)
		}, 0, 1},
		{"clean_load", func(r *wbRig) error {
			complete = true
			r.put(base>>2, 1, memVal, false)
			_, err := r.cpu.pdLoad(base, 4, 0)
			return err
		}, 1, 0},
		{"index_miss_load", func(r *wbRig) error {
			_, err := r.cpu.pdLoad(base, 4, 0)
			return err
		}, 1, 0},
		{"index_miss_store", func(r *wbRig) error {
			complete = true
			return r.cpu.pdStore(base, 4, memVal^1, 0)
		}, 0, 1},
		{"complete_index_outside_memory", func(r *wbRig) error {
			complete = true
			r.cpu.pdLoad(MemSize, 4, 0) // the Bus faults; only its reach counts
			return nil
		}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rig()
			before := r.snap()
			if err := tc.access(r); err != nil {
				t.Fatal(err)
			}
			got := r.snap()
			if got.accesses != before.accesses || got.loads != before.loads+tc.loads || got.stores != before.stores+tc.stores {
				t.Errorf("%+v after %+v: want %d bus load(s), %d bus store(s) and no port count", got, before, tc.loads, tc.stores)
			}
		})
	}
}

// TestAccessPortMonitorCertificates pins the reference monitor's half of
// the port: with Certs set, every access the port would complete against
// memory needs the monitor's certificate for its word too — a filter read
// hit, a TEXT literal load and a complete index's unindexed read need
// Tracked, a filter write hit needs WriteDom — and crosses the Bus without
// it, counting nothing. A clean-slot false write
// crosses the Bus whatever the certificates say; a dirty Write-back word
// needs none.
func TestAccessPortMonitorCertificates(t *testing.T) {
	const (
		base   = 0x8000
		memVal = 0x11223344
		wbVal  = 0xA5B6C7D8
	)
	const w = base >> 2
	type rig struct {
		*wbRig
		certs    accfilter.Certs
		complete bool
	}
	mk := func(tags, certified bool) *rig {
		r := &rig{wbRig: newWBRig(), certs: accfilter.Certs{Tracked: accfilter.Empty, WriteDom: accfilter.Empty}, complete: true}
		p := r.cpu.AccessPort()
		p.Certs = &r.certs
		if !tags {
			p.Read, p.Write, p.Complete = nil, nil, &r.complete
		}
		r.cpu.SetAccessPort(p, r.mem)
		r.mem.WriteWord(base, memVal)
		r.rd[w&accfilter.Mask], r.wr[w&accfilter.Mask] = w, w
		if certified {
			r.certs.Tracked[w&accfilter.Mask], r.certs.WriteDom[w&accfilter.Mask] = w, w
		} else {
			// A colliding word holds the slot: a certificate for another
			// word certifies nothing here.
			r.certs.Tracked[w&accfilter.Mask] = w + accfilter.Entries
			r.certs.WriteDom[w&accfilter.Mask] = w + accfilter.Entries
		}
		return r
	}
	for _, tc := range []struct {
		name   string
		tags   bool
		access func(r *rig) error
		store  bool // the access is a store
		served bool // served in the loop when certified
	}{
		{"filter_read_hit", true, func(r *rig) error { _, err := r.cpu.pdLoad(base, 4, 0); return err }, false, true},
		{"filter_write_hit", true, func(r *rig) error { return r.cpu.pdStore(base, 2, 0x77, 0) }, true, true},
		{"text_literal", true, func(r *rig) error { _, err := r.cpu.loadTextLit(base, 0); return err }, false, true},
		{"tagless_text_literal", false, func(r *rig) error { _, err := r.cpu.loadTextLit(base, 0); return err }, false, true},
		{"tagless_unindexed_read", false, func(r *rig) error { _, err := r.cpu.pdLoad(base, 1, 0); return err }, false, true},
		{"clean_false_write", true, func(r *rig) error {
			r.rd[w&accfilter.Mask], r.wr[w&accfilter.Mask] = accfilter.Empty[w&accfilter.Mask], accfilter.Empty[w&accfilter.Mask]
			r.put(w, 1, memVal, false)
			return r.cpu.pdStore(base, 4, memVal, 0)
		}, true, false},
	} {
		for _, certified := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/certified=%v", tc.name, certified), func(t *testing.T) {
				r := mk(tc.tags, certified)
				before := r.snap()
				want := before
				switch {
				case certified && tc.served:
					want.accesses++
					if tc.store {
						want.hooks++
					}
				case tc.store:
					want.stores++
					want.hooks++
				default:
					want.loads++
				}
				if err := tc.access(r); err != nil {
					t.Fatal(err)
				}
				if got := r.snap(); got != want {
					t.Errorf("%+v, want %+v", got, want)
				}
			})
		}
	}

	// Dirty Write-back words need no certificate: the monitor never sees
	// them.
	for _, tags := range []bool{false, true} {
		r := mk(tags, false)
		r.rd[w&accfilter.Mask], r.wr[w&accfilter.Mask] = accfilter.Empty[w&accfilter.Mask], accfilter.Empty[w&accfilter.Mask]
		r.put(w, 2, wbVal, true)
		before := r.snap()
		if v, err := r.cpu.pdLoad(base, 4, 0); err != nil || v != wbVal {
			t.Fatalf("tags=%v: dirty load = %#x, %v; want the slot's %#x", tags, v, err, wbVal)
		}
		if err := r.cpu.pdStore(base, 4, 5, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := r.snap(), (snap{before.accesses + 2, before.loads, before.stores, before.hooks}); got != want {
			t.Errorf("tags=%v: dirty accesses %+v, want %+v (two accesses, no bus)", tags, got, want)
		}
	}
}
