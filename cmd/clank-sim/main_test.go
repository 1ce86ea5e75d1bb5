package main

import "testing"

func TestCompareOutputs(t *testing.T) {
	want := []uint32{7, 8, 9}
	for _, tc := range []struct {
		name string
		got  []uint32
		err  string
	}{
		{"equal", []uint32{7, 8, 9}, ""},
		{"duplicated", []uint32{7, 8, 9, 9}, "4 outputs, want 3"},
		{"short", []uint32{7, 8}, "2 outputs, want 3"},
		{"wrong-value", []uint32{7, 5, 9}, "output[1] is 5 (0x5), want 8 (0x8)"},
		{"empty", nil, "0 outputs, want 3"},
	} {
		err := compareOutputs(want, tc.got)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}
