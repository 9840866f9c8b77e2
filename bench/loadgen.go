package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"djstar/internal/synth"
)

// The /v1 routes the open-loop client exercises, with the share of the
// request mix each takes. A churn slot creates a session while fewer
// than churnLive exist and deletes the oldest otherwise, so creates and
// deletes take 10 % each and the live heap does not wander. drain,
// undrain and metrics are not drawn: one drain/undrain pair runs at
// mid-window and /metrics is scraped every five seconds, as a monitoring
// system would.
type route int

const (
	rSnapshot route = iota
	rGet
	rShards
	rEdit
	rChurn // resolved to rCreate or rDelete when the schedule is built
	rCreate
	rDelete
	rDrain
	rUndrain
	rMetrics
)

var routeNames = [...]string{"snapshot", "get", "shards", "edit", "churn", "create", "delete", "drain", "undrain", "metrics"}

// churnLive is the population of churn sessions the schedule holds.
const churnLive = 4

var routeMix = [...]struct {
	r     route
	share int // percent
}{{rSnapshot, 40}, {rGet, 20}, {rShards, 10}, {rEdit, 10}, {rChurn, 20}}

// request is one scheduled control-plane call. It is sent on connection
// conn no earlier than due; every latency is taken from due, so a stall
// is charged to every request it delays.
type request struct {
	route  route
	due    time.Duration // since the window opened
	conn   int
	method string
	path   string
	body   string
	want   int // the status the schedule expects
	churn  int // create: the churn session it makes; delete: the one it removes; else -1
}

// reqResult is what the client saw.
type reqResult struct {
	lateMS float64 // send time − due: how late the generator ran
	latMS  float64 // response − due
	status int
	err    error
}

// buildSchedule draws the request schedule from the seed: total evenly
// spaced requests dealt round-robin over conns keep-alive connections.
// Reads target standing sessions; connection c edits standing session c
// only, alternating insert and remove, so each session sees its edits
// in order. Deletes remove churn sessions oldest first and wait for the
// matching create to have answered.
func buildSchedule(p params, standing []string) []request {
	rng := synth.NewRand(p.seed ^ 0x9e3779b97f4a7c15)
	total := int(p.seconds * p.reqRate)
	gap := time.Duration(float64(time.Second) / p.reqRate)
	var (
		sched   []request
		created int
		deleted int
		edits   = make([]int, p.n)
	)
	add := func(r request) { sched = append(sched, r) }
	for i := 0; i < total; i++ {
		rq := request{due: time.Duration(i) * gap, conn: i % p.n, method: "GET", want: http.StatusOK, churn: -1}
		target := standing[rng.Intn(len(standing))]
		pick := rng.Intn(100)
		for _, m := range routeMix {
			if pick < m.share {
				rq.route = m.r
				break
			}
			pick -= m.share
		}
		if rq.route == rChurn {
			if rq.route = rDelete; created-deleted < churnLive {
				rq.route = rCreate
			}
		}
		switch rq.route {
		case rSnapshot:
			rq.path = "/v1/sessions/" + target + "/snapshot"
		case rGet:
			rq.path = "/v1/sessions/" + target
		case rShards:
			rq.path = "/v1/shards"
		case rEdit:
			patch := "insert-delay:B:2"
			if edits[rq.conn]%2 == 1 {
				patch = "remove-delay:B"
			}
			edits[rq.conn]++
			rq.method, rq.path = "POST", "/v1/sessions/"+standing[rq.conn%len(standing)]+"/edits"
			rq.body = fmt.Sprintf(`{"patch":%q}`, patch)
		case rCreate:
			rq.method, rq.path, rq.want = "POST", "/v1/sessions", http.StatusCreated
			rq.body = fmt.Sprintf(`{"id":"churn-%d"}`, created)
			rq.churn = created
			created++
		case rDelete:
			rq.method, rq.path, rq.want = "DELETE", fmt.Sprintf("/v1/sessions/churn-%d", deleted), http.StatusNoContent
			rq.churn = deleted
			deleted++
		}
		add(rq)
		if i == total/2 {
			add(request{route: rDrain, due: rq.due, conn: 0, method: "POST", path: "/v1/shards/0/drain", want: http.StatusOK, churn: -1})
			add(request{route: rUndrain, due: rq.due, conn: 0, method: "DELETE", path: "/v1/shards/0/drain", want: http.StatusNoContent, churn: -1})
		}
		if every := int(5 * p.reqRate); i%every == every/2 {
			add(request{route: rMetrics, due: rq.due, conn: rq.conn, method: "GET", path: "/metrics", want: http.StatusOK, churn: -1})
		}
	}
	return sched
}

// churnResult is a finished load-generator window.
type churnResult struct {
	reqs []request
	res  []reqResult
}

// runLoadgen plays the schedule against the served fleet for p.seconds:
// open loop, one goroutine and one keep-alive connection per conn, never
// more than p.n of either.
func runLoadgen(p params, tr *tracer, parent int32, env *fleetEnv) churnResult {
	ids := make([]string, len(env.standing))
	for i, s := range env.standing {
		ids[i] = s.ID()
	}
	c := churnResult{reqs: buildSchedule(p, ids)}
	c.res = make([]reqResult, len(c.reqs))
	base := "http://" + env.srv.Addr()

	nCreates := 0
	for _, rq := range c.reqs {
		if rq.route == rCreate {
			nCreates++
		}
	}
	created := make([]chan struct{}, nCreates) // closed once create k has answered
	for i := range created {
		created[i] = make(chan struct{})
	}

	var wg sync.WaitGroup
	start := time.Now()
	for conn := 0; conn < p.n; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
			for i, rq := range c.reqs {
				if rq.conn != conn {
					continue
				}
				if d := rq.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				if rq.route == rDelete {
					<-created[rq.churn]
				}
				status, err := send(client, base, rq)
				done := time.Since(start)
				if rq.route == rCreate {
					close(created[rq.churn])
				}
				c.res[i] = reqResult{
					lateMS: float64(sent-rq.due) / 1e6, latMS: float64(done-rq.due) / 1e6,
					status: status, err: err,
				}
				if tr != nil {
					at := int64(start.Sub(tr.t0))
					tr.add("v1."+routeNames[rq.route], int32(100+conn), parent, at+int64(rq.due), int64(done-rq.due), int64(i))
				}
			}
		}(conn)
	}
	wg.Wait()
	// Hold the window open to its full length so the standing sessions
	// are measured for p.seconds whatever the last request took.
	if d := time.Duration(p.seconds*float64(time.Second)) - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	return c
}

// send issues one request and drains the response so the connection is
// reused.
func send(client *http.Client, base string, rq request) (int, error) {
	var body io.Reader
	if rq.body != "" {
		body = strings.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// count adds the requests to the run's operations: a request fails on a
// transport error or any status but the one its schedule slot expects.
func (c churnResult) count(rec *recorder) {
	rec.attempted += int64(len(c.reqs))
	for i, r := range c.res {
		if r.err != nil {
			rec.fail(1, "%s %s: %v", c.reqs[i].method, c.reqs[i].path, r.err)
		} else if r.status != c.reqs[i].want {
			rec.fail(1, "%s %s: status %d, want %d", c.reqs[i].method, c.reqs[i].path, r.status, c.reqs[i].want)
		}
	}
}

// latencies returns the from-due latencies of one route in ms, or of
// every route when r < 0.
func (c churnResult) latencies(r route) []float64 {
	var out []float64
	for i, rq := range c.reqs {
		if r < 0 || rq.route == r {
			out = append(out, c.res[i].latMS)
		}
	}
	return out
}

// emit reports the control plane as the client saw it.
func (c churnResult) emit(rec *recorder) {
	all := sorted(c.latencies(-1))
	rec.put("apiv1.req_p50_ms", pct(all, 0.5), "ms", len(all))
	rec.put("apiv1.req_p99_ms", pct(all, 0.99), "ms", len(all))
	for _, r := range []route{rCreate, rDelete, rGet, rSnapshot, rEdit, rShards, rDrain} {
		l := c.latencies(r)
		rec.put("apiv1."+routeNames[r]+"_p50_ms", median(l), "ms", len(l))
	}
	scrapes := c.latencies(rMetrics)
	rec.put("apiv1.metrics_scrape_ms", median(scrapes), "ms", len(scrapes))
	refused, late := 0, make([]float64, len(c.res))
	for i, r := range c.res {
		late[i] = r.lateMS
		if r.status == http.StatusTooManyRequests {
			refused++
		}
	}
	rec.put("apiv1.status_429", float64(refused), "count", len(c.res))
	rec.put("loadgen.late_p99_ms", pct(sorted(late), 0.99), "ms", len(late))
}
