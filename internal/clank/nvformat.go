package clank

// On-NV wire format of the checkpoint protocol's records, under the
// bit-granular torn-write failure model: a power failure during an NV store
// may leave any subset of the written bits flipped (none/some/all land), so
// a record is only trusted when its CRC trailer validates. Two record types
// live in the reserved region:
//
// Checkpoint slot record (one of the two A/B slots), 24 words:
//
//	word  0..15   r0..r15
//	word  16      PSR
//	word  17      progress-cycle counter, low word
//	word  18      progress-cycle counter, high word
//	word  19      committed output-log watermark
//	word  20      output-suppression count (degraded-boot replay dedup)
//	word  21      length (= SlotPayloadWords; seal)
//	word  22      sequence number (seal)
//	word  23      CRC32/IEEE over words 0..22 (seal; written last)
//
// Write-back journal record, 3 + 2n words:
//
//	word  0       length = armed entry count n (0 = disarmed; seal)
//	word  1       sequence number (seal)
//	word  2       CRC32/IEEE over words 0..1 and the n entries (seal)
//	word  3+2i    entry i home byte address
//	word  4+2i    entry i value
//
// The seal words are written after the payload, CRC last, so a record only
// validates once every covered bit is in place: the slot-seal CRC write is
// the commit's linearization point, and the journal-seal CRC write is what
// arms the journal. A cut — even a torn one — anywhere earlier leaves a
// record that fails its CRC and is detected, never consumed. Decoding never
// panics and classifies any byte image as valid, detectably-corrupt, or
// empty (all-zero: erased NV cells).
//
// Sequence numbers are monotonic across commits; recovery restores the
// valid slot with the highest sequence and replays the journal only when
// the journal's sequence matches that slot's (see intermittent.Machine).
// Wraparound at 2^32 commits is not modeled.

import "hash/crc32"

const (
	// SlotPayloadWords is the register-checkpoint payload: 16 registers,
	// PSR, the 64-bit progress counter, the output watermark, and the
	// output-suppression count.
	SlotPayloadWords = 21
	// RecSealWords is the per-record seal: length, sequence, CRC.
	RecSealWords = 3
	// SlotRecWords is the full slot record size.
	SlotRecWords = SlotPayloadWords + RecSealWords

	// Slot-record seal word indices.
	SlotLenWord = SlotPayloadWords
	SlotSeqWord = SlotPayloadWords + 1
	SlotCRCWord = SlotPayloadWords + 2

	// Journal-record header word indices (the seal leads the entries so
	// the record start is position-independent of the entry count).
	JnlLenWord         = 0
	JnlSeqWord         = 1
	JnlCRCWord         = 2
	JournalHeaderWords = RecSealWords
)

// JournalEntryWord returns the word index of entry i's address (half 0) or
// value (half 1) cell.
func JournalEntryWord(i, half int) int { return JournalHeaderWords + 2*i + half }

// JournalWords is the region size of a journal record with n entries.
func JournalWords(n int) int { return JournalHeaderWords + 2*n }

// RecStatus classifies a decoded NV record.
type RecStatus uint8

const (
	// RecEmpty: erased cells (all-zero slot region, or a zero journal
	// length word) — no record was ever completed here.
	RecEmpty RecStatus = iota
	// RecCorrupt: the record is present but fails validation — a torn
	// write was detected. Never consumed; recovery falls back.
	RecCorrupt
	// RecValid: the record validates and may be trusted.
	RecValid
)

// String names the status for counterexample reports.
func (s RecStatus) String() string {
	switch s {
	case RecEmpty:
		return "empty"
	case RecCorrupt:
		return "corrupt"
	case RecValid:
		return "valid"
	}
	return "?"
}

// SlotRecord is the decoded checkpoint slot payload.
type SlotRecord struct {
	Regs     [16]uint32
	PSR      uint32
	Cycle    uint64
	Outputs  uint32 // committed output-log watermark
	Suppress uint32 // outputs still to deduplicate after a degraded boot
	Seq      uint32
}

// crcWord folds one NV word (little-endian byte order) into a running
// CRC32/IEEE, equivalent to crc32.Update over the word's four bytes but
// without the escaping byte buffer — commit runs it per protocol write, so
// it must stay alloc-free (TestCRCWordMatchesStdlib pins the equivalence).
// It is slicing-by-4: the four byte steps of the table-driven CRC collapse
// into four independent lookups, one per byte of crc^w, each table
// advancing its byte by the steps still to come.
func crcWord(crc, w uint32) uint32 {
	x := ^crc ^ w
	return ^(crcSlice4[3][byte(x)] ^ crcSlice4[2][byte(x>>8)] ^
		crcSlice4[1][byte(x>>16)] ^ crcSlice4[0][x>>24])
}

// crcSlice4[k][b] is the CRC32/IEEE register after byte b is followed by k
// zero bytes: crcSlice4[0] is the byte-at-a-time table, and each further
// table runs one more step of it.
var crcSlice4 = func() (t [4][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < 4; k++ {
		for i := range t[k] {
			p := t[k-1][i]
			t[k][i] = t[0][byte(p)] ^ p>>8
		}
	}
	return
}()

// word reads cell i of a region image, treating absent words as erased.
func word(w []uint32, i int) uint32 {
	if i < 0 || i >= len(w) {
		return 0
	}
	return w[i]
}

// SlotCRC computes the slot-seal CRC over a region image: every record word
// except the CRC cell itself.
func SlotCRC(w []uint32) uint32 {
	crc := uint32(0)
	for i := 0; i < SlotCRCWord; i++ {
		crc = crcWord(crc, word(w, i))
	}
	return crc
}

// JournalCRC computes the journal-seal CRC over a region image holding
// count entries: the length and sequence cells, then the entry cells.
func JournalCRC(w []uint32, count int) uint32 {
	crc := crcWord(0, word(w, JnlLenWord))
	crc = crcWord(crc, word(w, JnlSeqWord))
	for i := JournalHeaderWords; i < JournalWords(count); i++ {
		crc = crcWord(crc, word(w, i))
	}
	return crc
}

// EncodeSlot serializes r into dst, which must hold SlotRecWords words,
// seal included. The commit routine writes these words to NV one by one in
// record order — CRC last.
func EncodeSlot(dst []uint32, r SlotRecord) {
	_ = dst[SlotRecWords-1]
	copy(dst, r.Regs[:])
	dst[16] = r.PSR
	dst[17] = uint32(r.Cycle)
	dst[18] = uint32(r.Cycle >> 32)
	dst[19] = r.Outputs
	dst[20] = r.Suppress
	dst[SlotLenWord] = SlotPayloadWords
	dst[SlotSeqWord] = r.Seq
	dst[SlotCRCWord] = SlotCRC(dst)
}

// decodeSlotPayload reads the payload fields without validation.
func decodeSlotPayload(w []uint32) SlotRecord {
	var r SlotRecord
	for i := range r.Regs {
		r.Regs[i] = word(w, i)
	}
	r.PSR = word(w, 16)
	r.Cycle = uint64(word(w, 17)) | uint64(word(w, 18))<<32
	r.Outputs = word(w, 19)
	r.Suppress = word(w, 20)
	r.Seq = word(w, SlotSeqWord)
	return r
}

// slotEmpty reports whether the region image is erased NV.
func slotEmpty(w []uint32) bool {
	for i := 0; i < SlotRecWords; i++ {
		if word(w, i) != 0 {
			return false
		}
	}
	return true
}

// DecodeSlot classifies and decodes a slot-record region image. The record
// is returned only with RecValid; it must never be consumed otherwise.
func DecodeSlot(w []uint32) (SlotRecord, RecStatus) {
	if slotEmpty(w) {
		return SlotRecord{}, RecEmpty
	}
	if word(w, SlotLenWord) != SlotPayloadWords {
		return SlotRecord{}, RecCorrupt
	}
	if word(w, SlotCRCWord) != SlotCRC(w) {
		return SlotRecord{}, RecCorrupt
	}
	return decodeSlotPayload(w), RecValid
}

// DecodeSlotLoose is the deliberately CRC-less decoder of the BugSkipCRC
// protocol variant: it trusts any record with a plausible length word. It
// exists so the meta-test can prove the bit-granular sweep catches what the
// word-granular sweep cannot — production recovery uses DecodeSlot.
func DecodeSlotLoose(w []uint32) (SlotRecord, RecStatus) {
	if slotEmpty(w) {
		return SlotRecord{}, RecEmpty
	}
	if word(w, SlotLenWord) != SlotPayloadWords {
		return SlotRecord{}, RecCorrupt
	}
	return decodeSlotPayload(w), RecValid
}

// DecodeJournal classifies a journal-record region image, returning the
// armed entry count and sequence number when valid. A zero length word is a
// disarmed journal (RecEmpty); a length that cannot fit the region is
// corrupt by construction (and bounds the CRC walk, so hostile images cost
// at most one pass over the region).
func DecodeJournal(w []uint32) (count int, seq uint32, st RecStatus) {
	n := word(w, JnlLenWord)
	if n == 0 {
		return 0, 0, RecEmpty
	}
	if uint64(JournalWords(0))+2*uint64(n) > uint64(len(w)) {
		return 0, 0, RecCorrupt
	}
	count = int(n)
	if word(w, JnlCRCWord) != JournalCRC(w, count) {
		return 0, 0, RecCorrupt
	}
	return count, word(w, JnlSeqWord), RecValid
}

// DecodeJournalLoose is the BugSkipCRC journal decoder: length-plausible
// records are trusted without a CRC check.
func DecodeJournalLoose(w []uint32) (count int, seq uint32, st RecStatus) {
	n := word(w, JnlLenWord)
	if n == 0 {
		return 0, 0, RecEmpty
	}
	if uint64(JournalWords(0))+2*uint64(n) > uint64(len(w)) {
		return 0, 0, RecCorrupt
	}
	return int(n), word(w, JnlSeqWord), RecValid
}

// JournalEntry reads entry i's (home byte address, value) pair from a
// region image. Only meaningful for i below a validated count.
func JournalEntry(w []uint32, i int) (addr, value uint32) {
	return word(w, JournalEntryWord(i, 0)), word(w, JournalEntryWord(i, 1))
}
