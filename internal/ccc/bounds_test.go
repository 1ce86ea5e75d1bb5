package ccc

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/armsim"
)

// truncatedSources end inside a declaration. Each once stepped the parser
// past the EOF token and panicked indexing beyond the token slice.
var truncatedSources = []string{"int", "void", "const", "char *", "int f(", "int a["}

// oversizedArraySources declare arrays that cannot fit the target memory:
// one length alone too large, a too-large global, a too-large local, and a
// two-dimensional array whose byte size overflows 64 bits.
var oversizedArraySources = []string{
	"char a[2000000000]; int main(){return 0;}",
	"int a[100000000]; int main(){return 0;}",
	"int main(){int a[100000000]; return 0;}",
	"char a[4294967296][4294967296]; int main(){return a[5][5];}",
}

// wantPositioned fails unless err is a "line N: ..." compile error.
func wantPositioned(t *testing.T, src string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("Compile(%q) succeeded, want an error", src)
	}
	if !strings.HasPrefix(err.Error(), "line ") {
		t.Errorf("Compile(%q) error %q carries no position", src, err)
	}
}

func TestTruncatedSourceErrors(t *testing.T) {
	for _, src := range truncatedSources {
		_, err := Compile(src)
		wantPositioned(t, src, err)
	}
}

// TestArraySizeBound checks that an array larger than the target memory
// is rejected when its type is built: promptly, with a positioned error,
// and without sizing any buffer by it.
func TestArraySizeBound(t *testing.T) {
	for _, src := range oversizedArraySources {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := Compile(src)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		wantPositioned(t, src, err)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Errorf("Compile(%q) allocated %d MB before failing", src, alloc>>20)
		}
		if elapsed > 2*time.Second {
			t.Errorf("Compile(%q) took %v to fail", src, elapsed)
		}
	}
}

// TestAggregateSizeBound covers the limits themselves and the sums the
// per-array bound leaves open: a struct, a function's locals and the
// globals together must each fit the memory too. An array at the limit
// still compiles.
func TestAggregateSizeBound(t *testing.T) {
	half := "[" + strconv.Itoa(armsim.MemSize/2+4) + "]"
	for _, src := range []string{
		"struct S { char a" + half + "; char b" + half + "; }; int main(){return 0;}",
		"int main(){char a" + half + "; char b" + half + "; return 0;}",
		"char a" + half + "; char b" + half + "; int main(){return 0;}",
		"char a[" + strconv.Itoa(armsim.MemSize+1) + "]; int main(){return 0;}",
		"char a[512][513]; int main(){return 0;}",
	} {
		_, err := Compile(src)
		wantPositioned(t, src, err)
	}
	src := "int f(){char a[" + strconv.Itoa(armsim.MemSize) + "]; return a[0];} int main(){return 0;}"
	if _, err := Compile(src); err != nil {
		t.Errorf("memory-sized local array rejected: %v", err)
	}
}

// FuzzCompile throws arbitrary source of at most 4 KB at the front end
// and back end (the committed corpus holds a small valid program, a struct
// program, the truncated and oversized-array sources above). Compile must
// never panic, and an accepted image must fit the target memory with its
// entry point and TEXT end inside it.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		img, err := Compile(src)
		if err != nil {
			return
		}
		n := uint32(len(img.Bytes))
		if n > armsim.MemSize {
			t.Fatalf("image of %d bytes exceeds the %d-byte memory", n, armsim.MemSize)
		}
		if img.Entry&^1 >= n || img.TextEnd > n {
			t.Fatalf("entry %#x / TEXT end %#x outside the %d-byte image", img.Entry, img.TextEnd, n)
		}
	})
}
