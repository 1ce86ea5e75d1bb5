package ccc

import (
	"strings"
	"testing"
	"time"

	"repro/internal/armsim"
)

// compileAndRun builds src, runs it to completion on a fresh machine, and
// returns the words written to the output port.
func compileAndRun(t *testing.T, src string) []uint32 {
	t.Helper()
	img, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := armsim.NewMachine()
	if err := m.Boot(img.Bytes); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return append([]uint32(nil), m.Mem.Outputs...)
}

func wantOutputs(t *testing.T, got []uint32, want ...uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("outputs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d (%#x), want %d (%#x); all = %v", i, got[i], got[i], want[i], want[i], got)
		}
	}
}

func TestReturnConstant(t *testing.T) {
	out := compileAndRun(t, `
int main(void) { __output(42); return 0; }
`)
	wantOutputs(t, out, 42)
}

func TestArithmetic(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	int a = 7;
	int b = 3;
	__output(a + b);
	__output(a - b);
	__output(a * b);
	__output(a / b);
	__output(a % b);
	__output(a << b);
	__output(a >> 1);
	__output(a & b);
	__output(a | b);
	__output(a ^ b);
	return 0;
}
`)
	wantOutputs(t, out, 10, 4, 21, 2, 1, 56, 3, 3, 7, 4)
}

func TestSignedDivision(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	__output((uint)(-7 / 2));
	__output((uint)(-7 % 2));
	__output((uint)(7 / -2));
	__output(100000000 / 3);
	__output((uint)4000000000 / 7);
	__output((uint)4000000000 % 7);
	return 0;
}
`)
	wantOutputs(t, out, uint32(0xFFFFFFFD), uint32(0xFFFFFFFF), uint32(0xFFFFFFFD),
		33333333, 571428571, 3)
}

func TestControlFlow(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	int i;
	int sum = 0;
	for (i = 0; i < 10; i++) {
		if (i == 5) continue;
		if (i == 8) break;
		sum += i;
	}
	__output(sum);
	i = 0;
	do { i++; } while (i < 3);
	__output(i);
	while (i < 100) { i = i * 2; }
	__output(i);
	return 0;
}
`)
	wantOutputs(t, out, 0+1+2+3+4+6+7, 3, 192)
}

func TestGlobalsAndArrays(t *testing.T) {
	out := compileAndRun(t, `
int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
const int weights[4] = {10, 20, 30, 40};
int counter;

int main(void) {
	int i;
	int acc = 0;
	for (i = 0; i < 8; i++) acc += table[i];
	__output(acc);
	for (i = 0; i < 4; i++) acc += weights[i];
	__output(acc);
	counter = 7;
	counter += 5;
	__output(counter);
	return 0;
}
`)
	wantOutputs(t, out, 36, 136, 12)
}

func TestPointers(t *testing.T) {
	out := compileAndRun(t, `
int buf[4];

void fill(int *p, int n) {
	int i;
	for (i = 0; i < n; i++) *p++ = i * i;
}

int main(void) {
	int *q = buf;
	fill(buf, 4);
	__output(buf[3]);
	__output(*(q + 2));
	__output(&buf[3] - &buf[1]);
	return 0;
}
`)
	wantOutputs(t, out, 9, 4, 2)
}

func TestCharAndShort(t *testing.T) {
	out := compileAndRun(t, `
char bytes[4];
short words[4];

int main(void) {
	int i;
	for (i = 0; i < 4; i++) bytes[i] = (char)(250 + i);
	__output(bytes[0]);
	__output(bytes[3]);
	words[0] = -5;
	__output((uint)(words[0] + 4));
	words[1] = (short)40000;
	__output((uint)words[1]);
	return 0;
}
`)
	var w16 uint16 = 40000
	wantOutputs(t, out, 250, 253, uint32(0xFFFFFFFF), uint32(int32(int16(w16))))
}

func TestRecursion(t *testing.T) {
	out := compileAndRun(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) {
	__output(fib(15));
	return 0;
}
`)
	wantOutputs(t, out, 610)
}

func TestStackArguments(t *testing.T) {
	out := compileAndRun(t, `
int sum6(int a, int b, int c, int d, int e, int f) {
	return a + 2*b + 3*c + 4*d + 5*e + 6*f;
}
int main(void) {
	__output(sum6(1, 2, 3, 4, 5, 6));
	return 0;
}
`)
	wantOutputs(t, out, 1+4+9+16+25+36)
}

func TestShortCircuit(t *testing.T) {
	out := compileAndRun(t, `
int hits;
int bump(int v) { hits++; return v; }
int main(void) {
	hits = 0;
	if (bump(0) && bump(1)) { __output(999); }
	__output(hits);
	if (bump(1) || bump(1)) { __output(77); }
	__output(hits);
	__output(bump(1) && bump(2));
	__output(!5);
	__output(!0);
	return 0;
}
`)
	wantOutputs(t, out, 1, 77, 2, 1, 0, 1)
}

func TestTernaryAndCompound(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	int x = 10;
	int y = x > 5 ? 100 : 200;
	__output(y);
	x <<= 2;
	__output(x);
	x /= 3;
	__output(x);
	x %= 4;
	__output(x);
	return 0;
}
`)
	wantOutputs(t, out, 100, 40, 13, 1)
}

func TestMultiDimArray(t *testing.T) {
	out := compileAndRun(t, `
int grid[3][4];
int main(void) {
	int i;
	int j;
	for (i = 0; i < 3; i++)
		for (j = 0; j < 4; j++)
			grid[i][j] = i * 10 + j;
	__output(grid[2][3]);
	__output(grid[1][0]);
	return 0;
}
`)
	wantOutputs(t, out, 23, 10)
}

// TestMultiDimGlobalInit pins C's rules for brace initializers of
// multi-dimensional globals: a braced sub-list initializes one whole row,
// zero-padded; a bare scalar fills the next element in row-major order; and
// braces inside a row initialize just the next element.
func TestMultiDimGlobalInit(t *testing.T) {
	out := compileAndRun(t, `
int m[2][3] = {{1,2,3},{4,5,6}};
int p[3][2] = {{1},{2}};
char e[2][3] = {1,2,3,4};
short x[2][2] = {7, {8}, {9}};
int c[2][2][2] = {{1,2,3}, {4}};
int main(void) {
	__output(m[0][2]);
	__output(m[1][0]);
	__output(m[1][2]);
	__output(p[0][1]);
	__output(p[1][0]);
	__output(p[1][1]);
	__output(p[2][0]);
	__output(e[1][0]);
	__output(e[1][1]);
	__output(x[0][1]);
	__output(x[1][0]);
	__output(c[0][1][0]);
	__output(c[0][1][1]);
	__output(c[1][0][0]);
	return 0;
}
`)
	wantOutputs(t, out, 3, 4, 6, 0, 2, 0, 0, 4, 0, 8, 9, 3, 0, 4)
}

func TestMultiDimGlobalInitErrors(t *testing.T) {
	for _, src := range []string{
		"int m[2][3] = {{1,2,3,4}};\nint main(void){return 0;}",
		"int m[2][3] = {{1},{2},{3}};\nint main(void){return 0;}",
		"int m[2][3] = {1,2,3,4,5,6,7};\nint main(void){return 0;}",
		"int a[3] = {{1,2}};\nint main(void){return 0;}",
		"int m[2][2] = {1, {2, 3}};\nint main(void){return 0;}",
	} {
		_, err := Compile(src)
		wantPositioned(t, src, err)
	}
}

func TestStringsAndRuntimeHelpers(t *testing.T) {
	out := compileAndRun(t, `
char dst[16];
int main(void) {
	char *msg = "hello";
	__output(strlen(msg));
	memcpy(dst, msg, 6);
	__output(dst[0]);
	__output(dst[4]);
	memset(dst, 7, 3);
	__output(dst[2]);
	__output(dst[3]);
	return 0;
}
`)
	wantOutputs(t, out, 5, 'h', 'o', 7, 'l')
}

func TestIncDec(t *testing.T) {
	out := compileAndRun(t, `
int a[3] = {5, 6, 7};
int main(void) {
	int i = 0;
	__output(a[i++]);
	__output(a[i]);
	__output(a[--i]);
	int *p = a;
	p++;
	__output(*p);
	__output(*p--);
	__output(*p);
	return 0;
}
`)
	wantOutputs(t, out, 5, 6, 5, 6, 6, 5)
}

func TestUnsignedComparisons(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	uint big = (uint)0xFFFFFFF0;
	uint small = 4;
	__output(big > small);
	int sbig = (int)big;
	__output(sbig < (int)small);
	return 0;
}
`)
	wantOutputs(t, out, 1, 1)
}

func TestLocalArrayAndNestedCalls(t *testing.T) {
	out := compileAndRun(t, `
int sum(int *p, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += p[i];
	return s;
}
int main(void) {
	int local[10];
	int i;
	for (i = 0; i < 10; i++) local[i] = i + 1;
	__output(sum(local, 10));
	return 0;
}
`)
	wantOutputs(t, out, 55)
}

func TestBranchRelaxation(t *testing.T) {
	// A loop body large enough to push conditional branches past the
	// short-form range, forcing wide branches and mid-function pools.
	src := `
int acc;
int main(void) {
	int i;
	acc = 0;
	for (i = 0; i < 3; i++) {
		if (i < 2) {
			acc += 1000001; acc ^= 123457; acc += 1000003; acc ^= 234567;
			acc += 1000007; acc ^= 345677; acc += 1000009; acc ^= 456789;
			acc += 1000033; acc ^= 567891; acc += 1000037; acc ^= 678901;
			acc += 1000039; acc ^= 789011; acc += 1000081; acc ^= 890123;
			acc += 1000099; acc ^= 901235; acc += 1000117; acc ^= 12347;
			acc += 1000121; acc ^= 123457; acc += 1000133; acc ^= 234569;
			acc += 1000151; acc ^= 345679; acc += 1000159; acc ^= 456791;
			acc += 1000171; acc ^= 567893; acc += 1000183; acc ^= 678903;
			acc += 1000187; acc ^= 789013; acc += 1000193; acc ^= 890125;
			acc += 1000199; acc ^= 901237; acc += 1000211; acc ^= 12349;
			acc += 1000213; acc ^= 123459; acc += 1000231; acc ^= 234571;
			acc += 1000249; acc ^= 345681; acc += 1000253; acc ^= 456793;
			acc += 1000273; acc ^= 567895; acc += 1000289; acc ^= 678905;
			acc += 1000291; acc ^= 789015; acc += 1000297; acc ^= 890127;
			acc += 1000303; acc ^= 901239; acc += 1000313; acc ^= 12351;
			acc += 1000333; acc ^= 123461; acc += 1000357; acc ^= 234573;
			acc += 1000367; acc ^= 345683; acc += 1000381; acc ^= 456795;
			acc += 1000393; acc ^= 567897; acc += 1000397; acc ^= 678907;
			acc += 1000403; acc ^= 789017; acc += 1000409; acc ^= 890129;
		} else {
			acc -= 55;
		}
	}
	__output((uint)acc);
	return 0;
}
`
	// Reference computation in Go.
	acc := int32(0)
	adds := []int32{
		1000001, 1000003, 1000007, 1000009, 1000033, 1000037, 1000039, 1000081,
		1000099, 1000117, 1000121, 1000133, 1000151, 1000159, 1000171, 1000183,
		1000187, 1000193, 1000199, 1000211, 1000213, 1000231, 1000249, 1000253,
		1000273, 1000289, 1000291, 1000297, 1000303, 1000313, 1000333, 1000357,
		1000367, 1000381, 1000393, 1000397, 1000403, 1000409,
	}
	xors := []int32{
		123457, 234567, 345677, 456789, 567891, 678901, 789011, 890123,
		901235, 12347, 123457, 234569, 345679, 456791, 567893, 678903,
		789013, 890125, 901237, 12349, 123459, 234571, 345681, 456793,
		567895, 678905, 789015, 890127, 901239, 12351, 123461, 234573,
		345683, 456795, 567897, 678907, 789017, 890129,
	}
	for i := 0; i < 3; i++ {
		if i < 2 {
			for k := range adds {
				acc += adds[k]
				acc ^= xors[k]
			}
		} else {
			acc -= 55
		}
	}
	out := compileAndRun(t, src)
	wantOutputs(t, out, uint32(acc))
}

func TestImageLayout(t *testing.T) {
	img, err := Compile(`
const int tab[4] = {1,2,3,4};
int data[4] = {5,6,7,8};
int main(void) { return tab[0] + data[0]; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if img.TextStart != 8 {
		t.Errorf("TextStart = %d, want 8", img.TextStart)
	}
	if img.TextEnd <= img.TextStart || img.TextEnd > img.DataStart {
		t.Errorf("bad text bounds [%#x, %#x) data %#x", img.TextStart, img.TextEnd, img.DataStart)
	}
	tabAddr := img.Symbols["tab"]
	if tabAddr < img.TextStart || tabAddr >= img.TextEnd {
		t.Errorf("const global at %#x, outside text [%#x,%#x)", tabAddr, img.TextStart, img.TextEnd)
	}
	dataAddr := img.Symbols["data"]
	if dataAddr < img.DataStart || dataAddr >= img.DataEnd {
		t.Errorf("mutable global at %#x, outside data [%#x,%#x)", dataAddr, img.DataStart, img.DataEnd)
	}
	if img.ClankCodeBytes <= 0 || img.ClankCodeBytes > 400 {
		t.Errorf("ClankCodeBytes = %d, want a small positive count", img.ClankCodeBytes)
	}
	if img.InitialSP != uint32(armsim.MemSize-ReservedBytes) {
		t.Errorf("InitialSP = %#x", img.InitialSP)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no-main", `int foo(void) { return 1; }`},
		{"undefined-var", `int main(void) { return x; }`},
		{"undefined-fn", `int main(void) { return foo(); }`},
		{"dup-global", "int g;\nint g;\nint main(void){return 0;}"},
		{"bad-args", `int f(int a) { return a; } int main(void) { return f(1,2); }`},
		{"assign-rvalue", `int main(void) { 3 = 4; return 0; }`},
		{"break-outside", `int main(void) { break; return 0; }`},
		{"void-var", `int main(void) { void v; return 0; }`},
		{"syntax", `int main(void) { return 0 }`},
		{"void-global", "void g = 1;\nint main(void){return 0;}"},
		{"void-array-init", "void v[3] = {1};\nint main(void){return 0;}"},
		{"zero-row-init", "char a[1][0] = {1};\nint main(void){return 0;}"},
		{"scalar-brace-list", "int g = {1, 2};\nint main(void){return 0;}"},
		{"struct-init", "struct S { char a; char b; char c; };\nstruct S s[4] = {1, 2, 3, 4};\nint main(void){return 0;}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.src); err == nil {
				t.Errorf("expected error for %s", tc.name)
			}
		})
	}
}

func TestSwitchStatement(t *testing.T) {
	out := compileAndRun(t, `
int classify(int v) {
	switch (v) {
	case 0:
		return 100;
	case 1:
	case 2:
		return 200;
	case 300:
		return 300;
	default:
		return 999;
	}
}

int main(void) {
	__output((uint)classify(0));
	__output((uint)classify(1));
	__output((uint)classify(2));
	__output((uint)classify(300));
	__output((uint)classify(7));
	return 0;
}
`)
	wantOutputs(t, out, 100, 200, 200, 300, 999)
}

func TestSwitchFallthroughAndBreak(t *testing.T) {
	out := compileAndRun(t, `
int main(void) {
	int i;
	for (i = 0; i < 5; i++) {
		int acc = 0;
		switch (i) {
		case 0:
			acc += 1;
			// fall through
		case 1:
			acc += 10;
			break;
		case 2:
			acc += 100;
			// fall through
		default:
			acc += 1000;
		}
		__output((uint)acc);
	}
	return 0;
}
`)
	wantOutputs(t, out, 11, 10, 1100, 1000, 1000)
}

func TestSwitchInsideLoopContinue(t *testing.T) {
	// continue inside a switch must target the enclosing loop; break must
	// target the switch.
	out := compileAndRun(t, `
int main(void) {
	int i;
	int sum = 0;
	for (i = 0; i < 6; i++) {
		switch (i & 1) {
		case 1:
			continue; // skip odd i entirely
		default:
			break;    // leaves the switch only
		}
		sum += i;
	}
	__output((uint)sum);
	return 0;
}
`)
	wantOutputs(t, out, 0+2+4)
}

func TestSwitchErrors(t *testing.T) {
	bad := []string{
		`int main(void) { switch (1) { case 1: case 1: break; } return 0; }`,
		`int main(void) { switch (1) { default: break; default: break; } return 0; }`,
		`int main(void) { switch (1) { __output(1); } return 0; }`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestCompilerAblationOptionsStillCorrect(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) {
	int i;
	uint acc = 0;
	for (i = 0; i < 12; i++) acc = acc * 31 + (uint)fib(i);
	__output(acc);
	return 0;
}
`
	var want []uint32
	for _, opts := range []Options{
		{},
		{DisableRegAlloc: true},
		{DisableRegAlloc: true, DisableDirectOperands: true},
	} {
		img, err := CompileWithOptions(src, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		m := armsim.NewMachine()
		if err := m.Boot(img.Bytes); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(100_000_000); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if want == nil {
			want = append([]uint32(nil), m.Mem.Outputs...)
			continue
		}
		for i := range want {
			if m.Mem.Outputs[i] != want[i] {
				t.Errorf("%+v: output %d = %d, want %d", opts, i, m.Mem.Outputs[i], want[i])
			}
		}
	}
}

func TestStructs(t *testing.T) {
	out := compileAndRun(t, `
struct Point {
	int x;
	int y;
	char tag;
};

struct Node {
	int value;
	struct Node *next;
};

struct Point origin;
struct Point grid[4];
struct Node pool[8];

int sumPoints(struct Point *p, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += p[i].x + p[i].y;
	return s;
}

int main(void) {
	struct Point local;
	struct Node *head;
	int i;

	__output(sizeof(struct Point));    // 4+4+1 rounded to 12
	__output(sizeof(struct Node));

	local.x = 3;
	local.y = 4;
	local.tag = 'L';
	__output((uint)(local.x * local.y));
	__output((uint)local.tag);

	origin.x = -1;
	origin.y = 1;
	for (i = 0; i < 4; i++) {
		grid[i].x = i;
		grid[i].y = i * i;
		grid[i].tag = (char)('a' + i);
	}
	__output((uint)sumPoints(grid, 4));
	__output((uint)grid[3].tag);
	__output((uint)(origin.x + origin.y));

	// Linked list via -> through a node pool.
	head = 0;
	for (i = 0; i < 5; i++) {
		pool[i].value = i * 10;
		pool[i].next = head;
		head = &pool[i];
	}
	{
		int s = 0;
		struct Node *n = head;
		while (n) {
			s += n->value;
			n = n->next;
		}
		__output((uint)s);
	}
	head->value += 7;
	__output((uint)pool[4].value);
	return 0;
}
`)
	wantOutputs(t, out,
		12, 8,
		12, 'L',
		(0+0)+(1+1)+(2+4)+(3+9), 'd', 0,
		0+10+20+30+40, 47)
}

func TestStructErrors(t *testing.T) {
	bad := []string{
		`struct P { int x; }; int main(void) { struct P a; struct P b; a = b; return 0; }`,
		`struct P { int x; }; int f(struct P p) { return 0; } int main(void) { return 0; }`,
		`struct P { int x; }; struct P g(void) { struct P p; return p; } int main(void) { return 0; }`,
		`struct P { int x; }; int main(void) { struct P p; return p.y; }`,
		`int main(void) { struct Missing m; return 0; }`,
		`struct P { int x; int x; }; int main(void) { return 0; }`,
		`struct P { }; int main(void) { return 0; }`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// Mixed-width members must pack with natural alignment.
	out := compileAndRun(t, `
struct Mixed {
	char a;
	short b;
	char c;
	int d;
	char e[3];
};
int main(void) {
	struct Mixed m;
	__output(sizeof(struct Mixed)); // 0:a 2:b 4:c 8:d 12:e[3] -> 16
	m.a = 1; m.b = 2; m.c = 3; m.d = 4;
	m.e[0] = 5; m.e[2] = 7;
	__output((uint)(m.a + m.b + m.c + m.d + m.e[0] + m.e[2]));
	return 0;
}
`)
	wantOutputs(t, out, 16, 22)
}

// TestNestingBound feeds source nested a million levels deep, in each shape
// that grows the parse tree without bound: nested parentheses, nested
// blocks, and a left-deep operator chain (built by a loop, not by parser
// recursion). Each must fail promptly with a positioned error instead of
// growing the goroutine stack toward Go's fatal limit; nesting well past
// what real programs use still compiles and runs.
func TestNestingBound(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"parentheses": "int main(void) { __output(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "); return 0; }",
		"blocks":      "int main(void) {\n" + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }",
		"chain":       "int main(void) {\n__output(1" + strings.Repeat("+1", n) + "); return 0; }",
		"pointers":    "int main(void) { int " + strings.Repeat("*", n) + "p; return 0; }",
	} {
		start := time.Now()
		_, err := Compile(src)
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s: Compile = %v, want a nesting error", name, err)
		} else if !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("%s: error %q carries no position", name, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: rejected after %v", name, d)
		}
	}
	const deep = 200
	out := compileAndRun(t, "int main(void) { int x = 2; __output("+strings.Repeat("(", deep)+"x"+
		strings.Repeat(")", deep)+strings.Repeat("+x", deep)+"); { "+strings.Repeat("{", deep)+"__output(-"+
		strings.Repeat(" -", deep)+"x);"+strings.Repeat("}", deep)+" } return 0; }")
	wantOutputs(t, out, 2*(deep+1), 0xFFFFFFFE)
}
