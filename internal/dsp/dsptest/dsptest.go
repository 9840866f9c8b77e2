// Package dsptest is what the silence-sweep tests of the kernel packages,
// the graph session and the engine share: a reflective walk over every
// float64 a kernel holds — unexported fields, delay-line rings and scratch
// buffers included — so that "no subnormal anywhere" and "this state has
// reached exactly 0" are asserted on the values themselves, in any
// package's kernels, without each package exporting its state for tests.
// A field added to a kernel later is covered without anyone remembering to
// list it.
package dsptest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// Leaf is one float64 field, or one []float64, reachable from the root of
// a walk.
type Leaf struct {
	// Field is the name of the struct field that holds the values ("z1",
	// "buf", "state", ...), whatever slices and pointers lie between.
	Field string
	// X are the values: one for a scalar field. It aliases the kernel's
	// own memory for a slice and is a copy for a scalar.
	X []float64

	path []seg
}

type seg struct {
	name string // field name, or "" for an index
	idx  int
}

// Path renders where the leaf sits, e.g. "combsL[2].line.buf".
func (l Leaf) Path() string {
	var b strings.Builder
	for _, s := range l.path {
		switch {
		case s.name == "":
			fmt.Fprintf(&b, "[%d]", s.idx)
		case b.Len() > 0:
			b.WriteString("." + s.name)
		default:
			b.WriteString(s.name)
		}
	}
	return b.String()
}

// Walk calls visit for every float64 leaf reachable from root through
// pointers, interfaces, structs, slices, arrays and map values. A pointer
// is followed once; the pointers in skip are not followed at all (a deck's
// track is a few million samples of input, not state).
func Walk(root any, visit func(Leaf), skip ...any) {
	w := walker{visit: visit, seen: map[unsafe.Pointer]bool{}}
	for _, s := range skip {
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && !v.IsNil() {
			w.seen[v.UnsafePointer()] = true
		}
	}
	w.walk(reflect.ValueOf(root), "")
}

type walker struct {
	visit func(Leaf)
	seen  map[unsafe.Pointer]bool
	path  []seg
}

func (w *walker) walk(v reflect.Value, field string) {
	switch v.Kind() {
	case reflect.Float64:
		w.visit(Leaf{Field: field, X: []float64{v.Float()}, path: w.path})
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.UnsafePointer()] {
			return
		}
		w.seen[v.UnsafePointer()] = true
		w.walk(v.Elem(), field)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), field)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			w.path = append(w.path, seg{name: name})
			w.walk(v.Field(i), name)
			w.path = w.path[:len(w.path)-1]
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			if v.Len() > 0 {
				xs := unsafe.Slice((*float64)(v.UnsafePointer()), v.Len())
				w.visit(Leaf{Field: field, X: xs, path: w.path})
			}
			return
		}
		w.elems(v, field)
	case reflect.Array:
		w.elems(v, field)
	case reflect.Map:
		for it, i := v.MapRange(), 0; it.Next(); i++ {
			w.path = append(w.path, seg{idx: i})
			w.walk(it.Value(), field)
			w.path = w.path[:len(w.path)-1]
		}
	}
}

func (w *walker) elems(v reflect.Value, field string) {
	if !holdsFloats(v.Type().Elem(), 0) {
		return
	}
	for i := 0; i < v.Len(); i++ {
		w.path = append(w.path, seg{idx: i})
		w.walk(v.Index(i), field)
		w.path = w.path[:len(w.path)-1]
	}
}

// holdsFloats prunes element types that cannot lead to a float64 (a
// []bool, a [8]int), so long slices of them are not walked one by one.
func holdsFloats(t reflect.Type, depth int) bool {
	switch t.Kind() {
	case reflect.Float64, reflect.Pointer, reflect.Interface, reflect.Map:
		return true
	case reflect.Slice, reflect.Array:
		return holdsFloats(t.Elem(), depth+1)
	case reflect.Struct:
		if depth > 8 {
			return true
		}
		for i := 0; i < t.NumField(); i++ {
			if holdsFloats(t.Field(i).Type, depth+1) {
				return true
			}
		}
	}
	return false
}

// Subnormal reports whether x is a non-zero value below the smallest
// normal float64, 2.2e-308: the operands and results a CPU handles with a
// microcode assist.
func Subnormal(x float64) bool {
	b := math.Float64bits(x)
	return b&(0x7ff<<52) == 0 && b<<12 != 0
}

// FirstSubnormal returns the index of the first subnormal in xs, or -1.
func FirstSubnormal(xs []float64) int {
	for i, x := range xs {
		if Subnormal(x) {
			return i
		}
	}
	return -1
}

// NoSubnormals fails the test at the first subnormal value held anywhere
// under root.
func NoSubnormals(t testing.TB, what string, root any, skip ...any) {
	t.Helper()
	Walk(root, func(l Leaf) {
		if i := FirstSubnormal(l.X); i >= 0 && !t.Failed() {
			t.Errorf("%s: %s[%d] = %g is subnormal", what, l.Path(), i, l.X[i])
		}
	}, skip...)
}

// Lingering returns a description of the first non-zero value in a leaf
// for which isState reports true, or "" when all such state is exactly 0.
func Lingering(root any, isState func(Leaf) bool, skip ...any) string {
	found := ""
	Walk(root, func(l Leaf) {
		if found != "" || !isState(l) {
			return
		}
		for i, x := range l.X {
			if x != 0 {
				found = fmt.Sprintf("%s[%d] = %g", l.Path(), i, x)
				return
			}
		}
	}, skip...)
	return found
}

// Fields returns an isState for Lingering that selects leaves by the name
// of the field that holds them.
func Fields(names ...string) func(Leaf) bool {
	return func(l Leaf) bool {
		for _, n := range names {
			if l.Field == n {
				return true
			}
		}
		return false
	}
}

// Recursive names the fields of the dsp package's types that hold a
// decaying recursion: biquad state, a delay line's ring, a comb's damping
// one-pole, a follower's level.
var Recursive = Fields("z1", "z2", "buf", "state", "level")

// Unit is one kernel under Sweep: State is the root Walk starts from and
// Process runs one stereo packet through the kernel in place.
type Unit struct {
	State   any
	Process func(l, r []float64)
}

// Kernel describes a unit to Sweep.
type Kernel struct {
	Name string
	New  func() Unit
	// ZeroBy is the number of silent packets after which every state
	// selected by State, and the output, must be exactly 0 — derived by
	// the caller from the unit's slowest pole or feedback loop. 0 is for a
	// unit that keeps what it heard for good (a captured loop): it is held
	// to the subnormal checks only.
	ZeroBy int
	// State selects the leaves that must reach 0; nil means Recursive.
	State func(Leaf) bool
	// Carry copies from the swept unit's State to a new one's whatever is
	// not a decaying memory of the signal — an LFO phase, a counter —
	// before the second burst compares the two. nil: nothing to carry.
	Carry func(swept, fresh any)
}

// Sweep packet counts: the two bursts, and the silence a unit with no
// ZeroBy gets.
const (
	sweepBurst   = 64
	sweepSilence = 512
	// PacketSize is the packet length Sweep drives kernels with.
	PacketSize = 128
)

// Sweep drives a kernel through noise, silence and noise again. After
// every packet no value the unit holds and no output sample may be
// subnormal; after ZeroBy silent packets its state and output must be
// exactly 0 and stay there; and on the second burst it must produce, bit
// for bit, what a new unit produces — it remembers nothing of the first.
func Sweep(t *testing.T, k Kernel, noiseL, noiseR []float64) {
	t.Helper()
	if len(noiseL) < sweepBurst*PacketSize || len(noiseR) < sweepBurst*PacketSize {
		t.Fatalf("Sweep needs %d samples of noise per channel", sweepBurst*PacketSize)
	}
	isState := k.State
	if isState == nil {
		isState = Recursive
	}
	u := k.New()
	l, r := make([]float64, PacketSize), make([]float64, PacketSize)
	step := func(phase string, p int) {
		u.Process(l, r)
		what := fmt.Sprintf("%s, %s packet %d", k.Name, phase, p)
		NoSubnormals(t, what, u.State)
		if i := FirstSubnormal(l); i >= 0 {
			t.Errorf("%s: output L[%d] = %g is subnormal", what, i, l[i])
		}
		if i := FirstSubnormal(r); i >= 0 {
			t.Errorf("%s: output R[%d] = %g is subnormal", what, i, r[i])
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	burst := func(p int) {
		copy(l, noiseL[p*PacketSize:])
		copy(r, noiseR[p*PacketSize:])
	}
	for p := 0; p < sweepBurst; p++ {
		burst(p)
		step("first burst", p)
	}
	silence := sweepSilence
	if k.ZeroBy > 0 {
		silence = k.ZeroBy + sweepBurst
	}
	for p := 0; p < silence; p++ {
		clear(l)
		clear(r)
		step("silence", p)
		if k.ZeroBy == 0 || p < k.ZeroBy-1 {
			continue
		}
		if s := Lingering(u.State, isState); s != "" {
			t.Fatalf("%s: after %d silent packets %s, want every state exactly 0 by packet %d", k.Name, p+1, s, k.ZeroBy)
		}
		for i := range l {
			if l[i] != 0 || r[i] != 0 {
				t.Fatalf("%s: after %d silent packets output[%d] = (%g, %g), want exactly 0", k.Name, p+1, i, l[i], r[i])
			}
		}
	}
	if k.ZeroBy == 0 {
		return
	}
	fresh := k.New()
	if k.Carry != nil {
		k.Carry(u.State, fresh.State)
	}
	wantL, wantR := make([]float64, PacketSize), make([]float64, PacketSize)
	for p := 0; p < sweepBurst; p++ {
		burst(p)
		copy(wantL, l)
		copy(wantR, r)
		step("second burst", p)
		fresh.Process(wantL, wantR)
		for i := range l {
			if l[i] != wantL[i] || r[i] != wantR[i] {
				t.Fatalf("%s: second burst packet %d sample %d = (%v, %v), a new unit gives (%v, %v)",
					k.Name, p, i, l[i], r[i], wantL[i], wantR[i])
			}
		}
	}
}

// Floor is the dsp package's settle floor; a test there holds the two
// equal.
const Floor = 1e-60

// PacketsToFloor derives a ZeroBy: the number of packets a state that
// starts at magnitude from and shrinks by perSample every sample takes to
// pass under Floor, with a tenth and four packets to spare for the
// transient that precedes the pure decay.
func PacketsToFloor(from, perSample float64) int {
	n := math.Log(Floor/from) / math.Log(perSample) / PacketSize
	return int(n*1.1) + 4
}

// LaneLag is the number of packets DelayLine.Settle may take to reach a
// recursion of a loop delay samples long — eight trips round it, and the
// packet in progress: such a line's ZeroBy is its loop's PacketsToFloor
// plus this.
func LaneLag(delay int) int { return 8*delay/PacketSize + 2 }

// PoleRadius is the pole radius of a cookbook low-pass, high-pass,
// band-pass, notch or all-pass biquad (and of a flat shelf or peak): the
// per-sample decay of its state.
func PoleRadius(freq, q float64, rate int) float64 {
	alpha := math.Sin(2*math.Pi*freq/float64(rate)) / (2 * q)
	if alpha >= 1 {
		panic("dsptest: PoleRadius of an overdamped section")
	}
	return math.Sqrt((1 - alpha) / (1 + alpha))
}

// BenchSilenceTail times a kernel twice, as sub-benchmarks: "noise", one
// packet restored from the noise source before every call (what the
// kernel packages' other benchmarks do, so that they never see a decayed
// state), and "silence", a packet of zeros after a burst of noise and warm
// packets of silence — the tail those benchmarks avoid. With kernel cost
// independent of signal level the second figure is at most the first; a
// kernel whose state has gone subnormal shows it here, 10 to 120 times
// over. warm should cover the kernel's decay: its sweep's ZeroBy. noiseL
// and noiseR are one packet each.
func BenchSilenceTail(b *testing.B, warm int, noiseL, noiseR []float64, newProcess func() func(l, r []float64)) {
	l, r := make([]float64, PacketSize), make([]float64, PacketSize)
	b.Run("noise", func(b *testing.B) {
		process := newProcess()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(l, noiseL)
			copy(r, noiseR)
			process(l, r)
		}
	})
	b.Run("silence", func(b *testing.B) {
		process := newProcess()
		for p := 0; p < sweepBurst; p++ {
			copy(l, noiseL)
			copy(r, noiseR)
			process(l, r)
		}
		for p := 0; p < warm; p++ {
			clear(l)
			clear(r)
			process(l, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(l)
			clear(r)
			process(l, r)
		}
	})
}
