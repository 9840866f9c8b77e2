package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestAdmissionShape: the R7 sweep produces a gate-off and a gate-on row
// per session count, sweeps to one session past the analytical capacity,
// and the gate-on row there refuses at least one session — the refusal
// is analytical (static costs, deterministic controller), so this holds
// on any host. Timing-sensitive outcomes (SLO verdicts, bound
// violations) are reported by the experiment but deliberately not
// asserted here.
func TestAdmissionShape(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Cycles = 60
	res, err := Admission(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity < 1 {
		t.Fatalf("capacity = %d, want >= 1", res.Capacity)
	}
	if res.PeriodUS <= 0 {
		t.Fatalf("period = %v, want > 0", res.PeriodUS)
	}
	if len(res.Rows) < 4 || len(res.Rows)%2 != 0 {
		t.Fatalf("rows = %d, want even count >= 4", len(res.Rows))
	}
	var sawRefusal bool
	for i, r := range res.Rows {
		wantGate := "off"
		if i%2 == 1 {
			wantGate = "on"
		}
		if r.Gate != wantGate {
			t.Fatalf("row %d gate = %q, want %q", i, r.Gate, wantGate)
		}
		if r.Gate == "off" {
			if r.Admitted != r.Sessions || r.Refused != 0 {
				t.Fatalf("gate-off row %+v: gate decisions without a gate", r)
			}
			continue
		}
		if got := r.Admitted + r.Refused; got != r.Sessions {
			t.Fatalf("gate-on row %+v: verdicts sum to %d, want %d", r, got, r.Sessions)
		}
		if len(r.Admittees) != r.Admitted {
			t.Fatalf("gate-on row %+v: %d admittee reports", r, len(r.Admittees))
		}
		for _, s := range r.Admittees {
			if s.BoundUS <= 0 || s.MeasuredP95US <= 0 || s.MeasuredP99US <= 0 {
				t.Fatalf("admittee %+v: non-positive bound or percentile", s)
			}
			if s.MeasuredP95US > s.MeasuredP99US {
				t.Fatalf("admittee %+v: p95 > p99", s)
			}
		}
		if r.Sessions > res.Capacity {
			if r.Refused < r.Sessions-res.Capacity {
				t.Fatalf("row %+v: %d sessions over capacity %d but only %d refused",
					r, r.Sessions, res.Capacity, r.Refused)
			}
			sawRefusal = r.Refused > 0
		}
	}
	if !sawRefusal {
		t.Fatal("sweep never refused a session past capacity")
	}
	out := buf.String()
	for _, want := range []string{"analytical capacity", "bound-vs-measured", "refuse"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
