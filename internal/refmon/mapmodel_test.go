package refmon

// mapModel is the monitor's original two-map implementation, kept as the
// executable specification the epoch-stamped table is fuzzed against. Its
// semantics are the reference: the table must agree with it on every
// return value and every query.
type mapModel struct {
	// readNV maps word -> the non-volatile value the section first
	// observed there.
	readNV map[uint32]uint32
	// writtenNV records words the section wrote directly to NV memory
	// before ever reading them (write-dominated): safe.
	writtenNV map[uint32]struct{}
}

func newMapModel() *mapModel {
	return &mapModel{
		readNV:    make(map[uint32]uint32),
		writtenNV: make(map[uint32]struct{}),
	}
}

func (m *mapModel) Reset() {
	clear(m.readNV)
	clear(m.writtenNV)
}

func (m *mapModel) ReadNV(word, value uint32) {
	if _, ok := m.writtenNV[word]; ok {
		return
	}
	if _, ok := m.readNV[word]; !ok {
		m.readNV[word] = value
	}
}

func (m *mapModel) WriteNV(word, value, pc uint32) *Violation {
	if old, ok := m.readNV[word]; ok && old != value {
		return &Violation{Word: word, PC: pc, OldValue: old, NewValue: value}
	}
	if _, ok := m.readNV[word]; !ok {
		m.writtenNV[word] = struct{}{}
	}
	return nil
}

func (m *mapModel) ReadDominated(word uint32) bool {
	_, ok := m.readNV[word]
	return ok
}

func (m *mapModel) WriteDominated(word uint32) bool {
	_, ok := m.writtenNV[word]
	return ok
}

func (m *mapModel) Tracked() int { return len(m.readNV) + len(m.writtenNV) }
