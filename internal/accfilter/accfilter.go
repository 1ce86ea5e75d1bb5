// Package accfilter is the shape of the access filter the Clank detector
// keeps in front of its buffers (internal/clank), in a leaf package so the
// CPU's fused executor (internal/armsim) can probe the detector's very tag
// arrays through a Port without importing the detector.
//
// The filter is two direct-mapped tag arrays of word addresses. Slot i
// certifies word w when tags[w&Mask] == w; there is no separate valid bit —
// an empty or invalidated slot holds a value whose low nine bits differ from
// its index (Empty holds ^i; the detector point-invalidates with ^w), so no
// probe can match it.
//
// The contract, which only the detector establishes and maintains (see the
// invalidation matrix in DESIGN.md): a Read hit certifies that the
// detector's verdict for reading w is "proceed, nothing to do" and that the
// read changes no detector state except the section access count; a Write
// hit certifies the same for writing w, for any value and any pc. A prober
// that acts on a hit therefore owes exactly one access count and the memory
// access itself; on a miss it must call the detector, which re-probes and
// counts.
package accfilter

const (
	// Entries is the slot count of each tag array.
	Entries = 512
	// Mask maps a word address to its slot.
	Mask = Entries - 1
)

// Tags is one direct-mapped tag array.
type Tags [Entries]uint32

// Hit reports whether the array certifies word.
func (t *Tags) Hit(word uint32) bool { return t[word&Mask] == word }

// Empty is the all-slots-invalid tag array: slot i holds ^i, whose low nine
// bits are 511-i, and 511-i == i has no integer solution.
var Empty = func() (a Tags) {
	for i := range a {
		a[i] = ^uint32(i)
	}
	return
}()

// Port is a prober's view of one detector's filter: its two tag arrays and
// its section access counter, all owned and maintained by the detector.
type Port struct {
	Read, Write *Tags
	Accesses    *int
}
