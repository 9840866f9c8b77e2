package engine

import (
	"errors"
	"fmt"

	"djstar/internal/graph"
	"djstar/internal/obs"
	"djstar/internal/rescon"
	"djstar/internal/sched"
)

// Live graph editing. An EditSet is applied against the current
// topology's graph, compiled into a fresh plan, and staged; the next
// cycle boundary adopts it without stopping the audio: the scheduler
// keeps its workers, fault/quarantine/shed state is remapped onto the
// surviving nodes, node state carries over through the Migrate hooks,
// and the observability collector is replaced by one sized for the new
// plan. A failed adoption rolls back to the old topology and is
// retained as a flight-recorder event. The engine's public node-ID
// space advances with each adopted edit (PlanEpoch counts them);
// cross-thread readers always see a consistent (plan, collector) pair
// through the topology bundle.

// EditOutcome records the result of the most recent topology edit:
// staged-then-adopted, rejected at validation, or rolled back at the
// swap boundary. Exposed through Snapshot (schema v2) and LastEdit.
type EditOutcome struct {
	// Cycle is the engine cycle at which the outcome was decided
	// (staging cycle for rejections, adoption cycle otherwise).
	Cycle uint64 `json:"cycle"`
	// Epoch is the plan epoch after the outcome.
	Epoch uint64 `json:"epoch"`
	// Ops counts the edit operations in the set.
	Ops int `json:"ops"`
	// Applied is true when the edit was adopted into the live topology.
	Applied bool `json:"applied"`
	// Err is the rejection or rollback error ("" on success).
	Err string `json:"err,omitempty"`
	// Desc describes the edit (a patch spec, or "<n> ops").
	Desc string `json:"desc,omitempty"`
}

// LastEdit returns the most recent edit outcome (nil when no edit has
// been attempted). Safe from any thread.
func (e *Engine) LastEdit() *EditOutcome { return e.lastEdit.Load() }

// stagedTopo is a compiled topology parked until the next cycle
// boundary adopts it. remap composes every edit staged since the live
// topology.
type stagedTopo struct {
	topo  *topology
	remap *graph.Remap
	ops   int
	desc  string
}

// ApplyEdits validates and compiles an edit set against the current
// topology (including any not-yet-adopted staged edit — stacked edits
// compose) and stages the result for adoption at the next cycle
// boundary. The error reports validation/compilation failures
// (graph.ErrBadEdit, graph.ErrCycle); the audio is untouched on error.
// Safe from any thread; the edit itself takes effect on the cycle
// thread, observable via PlanEpoch and LastEdit.
func (e *Engine) ApplyEdits(es *graph.EditSet) error {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	return e.applyEditsLocked(es, fmt.Sprintf("%d ops", es.Len()))
}

// ApplyPatch builds an edit set from a live-patch spec (see
// graph.Session.BuildPatch: "insert-delay:A:2", "remove-delay:A",
// "drop-node:MeterA") and stages it like ApplyEdits.
func (e *Engine) ApplyPatch(spec string) error {
	e.editMu.Lock()
	defer e.editMu.Unlock()
	base, _ := e.editBase()
	es, err := e.session.BuildPatch(base.g, spec)
	if err != nil {
		e.recordEdit(EditOutcome{
			Cycle: e.cycleN.Load(), Epoch: e.planEpoch.Load(),
			Err: err.Error(), Desc: spec,
		})
		return err
	}
	return e.applyEditsLocked(es, spec)
}

// editBase returns the topology new edits apply against — the staged
// one when present (stacked edits), else the live one — plus the
// staged wrapper itself (nil when none). editMu must be held.
func (e *Engine) editBase() (*topology, *stagedTopo) {
	if st := e.staged.Load(); st != nil {
		return st.topo, st
	}
	return e.topo.Load(), nil
}

// applyEditsLocked compiles and stages one edit set. editMu held.
func (e *Engine) applyEditsLocked(es *graph.EditSet, desc string) error {
	fail := func(err error) error {
		e.recordEdit(EditOutcome{
			Cycle: e.cycleN.Load(), Epoch: e.planEpoch.Load(),
			Ops: es.Len(), Err: err.Error(), Desc: desc,
		})
		kind := obs.EditRejected
		if errors.Is(err, ErrUnschedulableEdit) {
			kind = obs.EditRefused // the admission gate's refusals are counted
		}
		e.tel.Event(kind, e.cycleN.Load(), desc+": "+err.Error())
		return err
	}
	for {
		if e.closed.Load() {
			return fmt.Errorf("engine: ApplyEdits after Close")
		}
		base, prev := e.editBase()
		next, err := e.buildStaged(es, desc, base, prev)
		if err != nil {
			return fail(err)
		}
		if e.beforePublish != nil {
			e.beforePublish()
		}
		// Publish only over the stage next was built on. The cycle thread
		// may have adopted prev meanwhile: next's remap, composed through
		// prev's, is then indexed by the plan before the live one, and
		// would move fault bits and node state onto the wrong nodes.
		if e.staged.CompareAndSwap(prev, next) {
			return nil
		}
		if e.topo.Load() != prev.topo {
			return fail(errors.New("engine: the staged edit this one stacks on was rolled back"))
		}
		// prev is live now, and es was built against its graph: rebuild
		// on the live topology.
	}
}

// buildStaged applies es to base — the live topology, or the staged
// edit prev stacks on — and compiles the stage that would replace prev:
// admission check, fusion, a collector for the new plan, and the remap
// from the live plan. editMu held.
func (e *Engine) buildStaged(es *graph.EditSet, desc string, base *topology, prev *stagedTopo) (*stagedTopo, error) {
	g2, plan2, remap, err := base.g.Apply(es)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		remap = prev.remap.Compose(remap)
	}
	if e.adm != nil {
		// Admission re-check: the staged plan's analytical bound must
		// still fit the envelope at the session's current degradation
		// rung, or the edit is rejected here — before fusion, before the
		// swap, with the live topology untouched (ErrUnschedulableEdit).
		if err := e.adm.checkEdit(e, plan2, remap); err != nil {
			return nil, err
		}
	}
	execPlan := plan2
	if e.cfg.FusePlan {
		costs, _ := e.nodeCosts(e.topo.Load(), plan2, remap)
		if execPlan, err = graph.Fuse(plan2, costs, graph.FuseOptions{}); err != nil {
			return nil, err
		}
	}
	var col *obs.Collector
	if !e.cfg.Obs.Disable {
		col = obs.NewCollector(plan2, obs.Config{
			Workers:    e.obsWorkers,
			TraceEvery: e.cfg.Obs.TraceEvery,
			TraceRing:  e.cfg.Obs.TraceRing,
		})
	}
	st := &stagedTopo{
		topo:  &topology{g: g2, plan: plan2, execPlan: execPlan, col: col},
		remap: remap,
		ops:   es.Len(),
		desc:  desc,
	}
	if prev != nil {
		st.ops += prev.ops
		st.desc = prev.desc + "; " + desc
	}
	return st, nil
}

// StaticCostsUS is the static per-node cost table at an engine's
// execution scale: the design table (paper µs) scaled the way
// graph.NewLoad scales the kernels. It is what the engine's admission
// gate and the fleet's placement analysis both price a session with
// before it has run.
func StaticCostsUS(p *graph.Plan, scale float64) []float64 {
	out := rescon.PaperCostsUS(p)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// nodeCosts is the engine's one per-node µs cost table for plan, with
// its source: StaticCostsUS at the running scale, overlaid with live's
// measured means — "measured" — once its collector has observed a
// cycle, else "static". plan is live's own (remap nil) or a staged
// edit's, whose surviving nodes carry their measurement through remap
// and whose fresh ones keep the static figure.
func (e *Engine) nodeCosts(live *topology, plan *graph.Plan, remap *graph.Remap) ([]float64, string) {
	out := StaticCostsUS(plan, e.cfg.Graph.Scale)
	if live.col == nil || live.col.Cycles() == 0 {
		return out, "static"
	}
	m := live.col.NodeMeansUS()
	for i := range out {
		old := int32(i)
		if remap != nil {
			old = remap.NewToOld[i] // -1 for a node the edit adds
		}
		if old >= 0 && int(old) < len(m) && m[old] > 0 {
			out[i] = m[old]
		}
	}
	return out, "measured"
}

// adoptStaged installs the staged topology at the cycle boundary: the
// scheduler swaps plans in place (workers, fault counters, quarantine
// and shed state survive through the remap), node state migrates via
// the Migrate hooks, the governor replays its level's shed bits onto the
// new plan, and the epoch advances. On a refused swap the old topology
// stays live and the rollback is retained as a flight-recorder event.
// Cycle thread only.
func (e *Engine) adoptStaged() {
	st := e.staged.Swap(nil)
	if st == nil {
		return
	}
	old := e.topo.Load()
	sw := sched.Swap{Plan: st.topo.execPlan, OldToNew: st.remap.OldToNew}
	if st.topo.col != old.col {
		sw.Observer = st.topo.col
	}
	cyc := e.cycleN.Load()
	if err := e.sch().StageSwap(sw); err != nil {
		e.recordEdit(EditOutcome{
			Cycle: cyc, Epoch: e.planEpoch.Load(),
			Ops: st.ops, Err: err.Error(), Desc: st.desc,
		})
		e.tel.Event(obs.EditRollback, cyc, st.desc+": "+err.Error())
		return
	}
	e.sch().AdoptStaged()
	migrateStates(old.plan, st.topo.plan, st.remap)
	e.topo.Store(st.topo)
	epoch := e.planEpoch.Add(1)
	if e.gov != nil {
		e.gov.retarget()
	}
	e.recordEdit(EditOutcome{
		Cycle: cyc, Epoch: epoch, Ops: st.ops, Applied: true, Desc: st.desc,
	})
	e.tel.Event(obs.PlanSwap, cyc, fmt.Sprintf("%s (epoch %d)", st.desc, epoch))
}

// migrateStates runs the new plan's Migrate hooks with the state of the
// node each one descends from in the old plan (nil for fresh nodes).
// Runs on the cycle thread after scheduler adoption, before the new
// plan's first cycle.
func migrateStates(oldPlan, newPlan *graph.Plan, r *graph.Remap) {
	for i, fn := range newPlan.Migrate {
		if fn == nil {
			continue
		}
		var prev any
		if src := r.StateSrc[i]; src >= 0 && int(src) < len(oldPlan.States) {
			prev = oldPlan.States[src]
		}
		fn(prev)
	}
}

// recordEdit publishes one edit outcome for LastEdit / Snapshot readers.
func (e *Engine) recordEdit(o EditOutcome) { e.lastEdit.Store(&o) }
