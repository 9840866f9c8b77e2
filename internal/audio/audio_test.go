package audio

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPacketPeriodStandard(t *testing.T) {
	got := StandardPacketPeriod
	secs := 128.0 / 44100.0
	want := time.Duration(secs * float64(time.Second))
	if got != want {
		t.Fatalf("StandardPacketPeriod = %v, want %v", got, want)
	}
	// Paper: "one packet every 2.9 ms".
	if got < 2800*time.Microsecond || got > 3000*time.Microsecond {
		t.Fatalf("StandardPacketPeriod = %v, want ~2.9ms", got)
	}
}

func TestBufferZeroAndScale(t *testing.T) {
	b := Buffer{1, -2, 3}
	b.Scale(0.5)
	if b[0] != 0.5 || b[1] != -1 || b[2] != 1.5 {
		t.Fatalf("Scale gave %v", b)
	}
	b.Zero()
	for i, s := range b {
		if s != 0 {
			t.Fatalf("Zero left b[%d]=%v", i, s)
		}
	}
}

func TestBufferCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched lengths did not panic")
		}
	}()
	Buffer{1, 2}.CopyFrom(Buffer{1})
}

func TestBufferAddFrom(t *testing.T) {
	dst := Buffer{1, 1, 1}
	dst.AddFrom(Buffer{1, 2, 3}, 2)
	want := Buffer{3, 5, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AddFrom gave %v, want %v", dst, want)
		}
	}
}

func TestPeakAndRMS(t *testing.T) {
	s := Stereo{L: Buffer{0.5, -1.0, 0.25}, R: Buffer{0, 0, 0}}
	if p := s.Peak(); p != 1.0 {
		t.Fatalf("Peak = %v, want 1", p)
	}
	want := math.Sqrt((0.25 + 1 + 0.0625) / 6)
	if r := s.RMS(); math.Abs(r-want) > 1e-12 {
		t.Fatalf("RMS = %v, want %v", r, want)
	}
	if r := (Stereo{}).RMS(); r != 0 {
		t.Fatalf("empty RMS = %v, want 0", r)
	}
}

func TestStereoMonoDownmix(t *testing.T) {
	s := NewStereo(3)
	copy(s.L, []float64{1, 0, -1})
	copy(s.R, []float64{0, 1, -1})
	m := NewBuffer(3)
	s.Mono(m)
	want := []float64{0.5, 0.5, -1}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Mono gave %v, want %v", m, want)
		}
	}
}

func TestStereoOps(t *testing.T) {
	a := NewStereo(2)
	b := NewStereo(2)
	copy(b.L, []float64{1, 2})
	copy(b.R, []float64{-1, -2})
	a.AddFrom(b, 0.5)
	if a.L[1] != 1 || a.R[1] != -1 {
		t.Fatalf("AddFrom gave %+v", a)
	}
	a.CopyFrom(b)
	if a.L[0] != 1 || a.R[0] != -1 {
		t.Fatalf("CopyFrom gave %+v", a)
	}
	if p := a.Peak(); p != 2 {
		t.Fatalf("Peak = %v, want 2", p)
	}
	a.Scale(0)
	if a.RMS() != 0 {
		t.Fatalf("RMS after zero scale = %v", a.RMS())
	}
	a.Zero()
	if a.Peak() != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestDBConversionRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 120) // keep in a sane range
		g := math.Pow(10, db/20)
		back := LinearToDB(g)
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBEdgeCases(t *testing.T) {
	if db := LinearToDB(0); !math.IsInf(db, -1) {
		t.Fatalf("LinearToDB(0) = %v, want -inf", db)
	}
	if db := LinearToDB(-1); !math.IsInf(db, -1) {
		t.Fatalf("LinearToDB(-1) = %v, want -inf", db)
	}
	if db := LinearToDB(1); db != 0 {
		t.Fatalf("LinearToDB(1) = %v, want 0", db)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 1, 1},
		{-5, 0, 1, 0},
		{0.5, 0, 1, 0.5},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Fatalf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestBufferOpsDoNotAllocate(t *testing.T) {
	b := NewBuffer(PacketSize)
	src := NewBuffer(PacketSize)
	allocs := testing.AllocsPerRun(100, func() {
		b.Zero()
		b.AddFrom(src, 0.5)
		b.Scale(0.9)
		_ = peak(b, src)
	})
	if allocs != 0 {
		t.Fatalf("buffer hot path allocates %v per run, want 0", allocs)
	}
}

// TestStereoRMSMatchesPerChannelEnergies pins the single-pass Stereo.RMS
// to its former two-pass form, bit for bit, over packets of every length
// up to 130 and channels of unequal length.
func TestStereoRMSMatchesPerChannelEnergies(t *testing.T) {
	ref := func(s Stereo) float64 {
		n := len(s.L) + len(s.R)
		if n == 0 {
			return 0
		}
		return math.Sqrt((energy(s.L) + energy(s.R)) / float64(n))
	}
	src := benchStereo()
	long := Stereo{L: append(append(Buffer{}, src.L...), src.R...), R: append(append(Buffer{}, src.R...), src.L...)}
	for n := 0; n <= 130; n++ {
		for _, s := range []Stereo{
			{L: long.L[:n], R: long.R[:n]},
			{L: long.L[:n], R: long.R[:n/2]},
			{L: long.L[:n/3], R: long.R[:n]},
		} {
			if got, want := s.RMS(), ref(s); got != want {
				t.Fatalf("RMS of %d/%d samples = %v, want %v", len(s.L), len(s.R), got, want)
			}
		}
	}
}

// energy is the sum of squared samples, in index order.
func energy(b Buffer) float64 {
	sum := 0.0
	for _, s := range b {
		sum += s * s
	}
	return sum
}
