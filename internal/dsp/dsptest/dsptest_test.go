package dsptest

import (
	"math"
	"testing"
)

type inner struct {
	z1, z2 float64
	buf    []float64
	n      int
}

type outer struct {
	name   string
	gains  [2]float64
	lines  []*inner
	byName map[string]*inner
	any    interface{}
	self   *outer
	big    *inner
	flags  []bool
}

func TestWalkReachesEveryFloat(t *testing.T) {
	shared := &inner{z1: 1, z2: 2, buf: []float64{3, 4}}
	skipped := &inner{z1: 100, buf: []float64{100}}
	o := &outer{
		gains:  [2]float64{5, 6},
		lines:  []*inner{shared, {z1: 7, buf: []float64{}}, nil},
		byName: map[string]*inner{"a": {z2: 8}},
		any:    &inner{buf: []float64{9}},
		big:    skipped,
		flags:  make([]bool, 1000),
	}
	o.self = o // a cycle
	sum, leaves := 0.0, 0
	paths := map[string]bool{}
	Walk(o, func(l Leaf) {
		leaves++
		paths[l.Path()] = true
		for _, x := range l.X {
			sum += x
		}
	}, skipped)
	if sum != 45 {
		t.Errorf("walk summed %v, want 1+...+9 = 45 (each pointer once, the skipped one never)", sum)
	}
	for _, p := range []string{"gains[0]", "lines[0].z1", "lines[0].buf", "any.buf"} {
		if !paths[p] {
			t.Errorf("no leaf at %q; have %v", p, paths)
		}
	}
	// A slice leaf aliases the kernel's memory.
	Walk(o, func(l Leaf) {
		if l.Field == "buf" && len(l.X) == 2 {
			l.X[0] = -3
		}
	})
	if shared.buf[0] != -3 {
		t.Error("slice leaf is a copy")
	}
}

func TestSubnormalAndLingering(t *testing.T) {
	for x, want := range map[float64]bool{
		0: false, 1: false, 2.2250738585072014e-308: false, 1e-60: false,
		2.2250738585072009e-308: true, 5e-324: true, -1e-310: true,
		math.Inf(1): false,
	} {
		if Subnormal(x) != want {
			t.Errorf("Subnormal(%g) = %v", x, !want)
		}
	}
	if Subnormal(math.NaN()) {
		t.Error("NaN counted as subnormal")
	}
	k := &inner{z1: 0, z2: 0, buf: []float64{0, 0, 1e-300}, n: 3}
	if got := Lingering(k, Recursive); got != "buf[2] = 1e-300" {
		t.Errorf("Lingering = %q", got)
	}
	k.buf[2] = 0
	if got := Lingering(k, Recursive); got != "" {
		t.Errorf("Lingering on an all-zero kernel = %q", got)
	}
	if PacketsToFloor(1, 0.5) != int(math.Log(Floor)/math.Log(0.5)/PacketSize*1.1)+4 {
		t.Error("PacketsToFloor changed its margin")
	}
}
