package refmon

import (
	"testing"

	"repro/internal/accfilter"
)

// TestUntrackedWordAccessors covers words the section never touched: both
// dominance classifications must be negative and the tracked count zero.
func TestUntrackedWordAccessors(t *testing.T) {
	m := New()
	if m.ReadDominated(5) || m.WriteDominated(5) {
		t.Fatal("untouched word classified as dominated")
	}
	if m.Tracked() != 0 {
		t.Fatalf("fresh monitor tracks %d words, want 0", m.Tracked())
	}
	m.ReadNV(1, 10)
	m.ReadNV(1, 10) // second read of the same word must not double-count
	if v := m.WriteNV(2, 3, 0); v != nil {
		t.Fatalf("write to untracked word flagged: %v", v)
	}
	if m.Tracked() != 2 {
		t.Fatalf("tracked %d words, want 2", m.Tracked())
	}
	if m.ReadDominated(2) || m.WriteDominated(1) {
		t.Fatal("dominance classes crossed")
	}
}

// TestFalseWriteStaysReadDominated: writing the identical value to a
// read-dominated word is harmless (a false write) and must NOT reclassify
// the word as write-dominated — a later differing write is still a
// violation.
func TestFalseWriteStaysReadDominated(t *testing.T) {
	m := New()
	m.ReadNV(4, 9)
	if v := m.WriteNV(4, 9, 0x20); v != nil {
		t.Fatalf("false write flagged: %v", v)
	}
	if !m.ReadDominated(4) || m.WriteDominated(4) {
		t.Fatal("false write reclassified the word")
	}
	v := m.WriteNV(4, 10, 0x24)
	if v == nil {
		t.Fatal("differing write after false write not flagged")
	}
	if v.Word != 4 || v.OldValue != 9 || v.NewValue != 10 || v.PC != 0x24 {
		t.Fatalf("violation fields wrong: %+v", v)
	}
}

// TestWriteDominatedReadUntracked: a read of a word the section already
// wrote observes the section's own deterministic value, so it must not
// enter the read set — later differing writes to it stay legal.
func TestWriteDominatedReadUntracked(t *testing.T) {
	m := New()
	if v := m.WriteNV(7, 1, 0); v != nil {
		t.Fatalf("first write flagged: %v", v)
	}
	m.ReadNV(7, 1)
	if m.ReadDominated(7) {
		t.Fatal("read of write-dominated word entered the read set")
	}
	if v := m.WriteNV(7, 2, 0); v != nil {
		t.Fatalf("overwrite of write-dominated word flagged: %v", v)
	}
}

// TestResetClearsBothSets: after a checkpoint the same write that would
// have violated must be legal, and the classifications and their
// certificates are gone.
func TestResetClearsBothSets(t *testing.T) {
	m := NewCertified()
	c := m.Certificates()
	m.ReadNV(3, 5)
	m.WriteNV(4, 1, 0)
	if !c.Tracked.Hit(3) || !c.Tracked.Hit(4) || !c.WriteDom.Hit(4) || c.WriteDom.Hit(3) {
		t.Fatal("certificates do not follow the classifications")
	}
	if v := m.WriteNV(3, 6, 0); v == nil {
		t.Fatal("WAR not flagged before reset")
	}
	m.Reset()
	if m.Tracked() != 0 || m.ReadDominated(3) {
		t.Fatal("reset left state behind")
	}
	if c.Tracked != accfilter.Empty || c.WriteDom != accfilter.Empty {
		t.Fatal("reset left a certificate behind")
	}
	if v := m.WriteNV(3, 6, 0); v != nil {
		t.Fatalf("post-reset write flagged: %v", v)
	}
}

// TestFirstReadValuePins: the violation compares against the FIRST value
// the section observed, even if later reads see the same word again.
func TestFirstReadValuePins(t *testing.T) {
	m := New()
	m.ReadNV(2, 11)
	m.ReadNV(2, 99) // would only happen if something else mutated NV
	if v := m.WriteNV(2, 11, 0); v != nil {
		t.Fatalf("write of first-observed value flagged: %v", v)
	}
	v := m.WriteNV(2, 12, 0)
	if v == nil || v.OldValue != 11 {
		t.Fatalf("violation should pin first-read value 11, got %+v", v)
	}
}
