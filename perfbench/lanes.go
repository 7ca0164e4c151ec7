package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/sensing"
	"repro/internal/walker"
)

// walk is one lane's pre-generated walk along one campus path.
type walk struct {
	path    int
	walker  int   // which of the lane's walkers down this path
	seed    int64 // particle-filter seed of the session serving this walk
	start   geo.Point
	snaps   []*sensing.Snapshot
	truth   []geo.Point
	surveys []offload.Survey // churn: one re-surveyed campus point per epoch
}

// lane is one closed-loop client: it walks every campus path back to
// back, one session per walk, sending each epoch as soon as the previous
// reply arrives.
type lane struct {
	id     int
	walks  []*walk
	opened int // sessions opened so far; makes every client ID unique

	// ref holds, per walk, the digest of the served results of the
	// lane's first complete run of it. Later runs of the walk must
	// reproduce it on workloads that compare.
	ref map[*walk]uint64
}

// walkersPerPath is how many walkers, each with its own sensor noise,
// a lane sends down every path in one pass. The accuracy figures come
// from a single pass, and their spread across seeds shrinks with the
// number of independent walks in it.
const walkersPerPath = 2

// mix derives an independent 63-bit seed from the run seed and a
// coordinate. Every part goes through the splitmix64 finalizer on its
// own, so (seed, lane) and (seed+1, lane-1) do not collide.
func mix(seed int64, parts ...int64) int64 {
	z := splitmix(uint64(seed))
	for _, p := range parts {
		z = splitmix(z ^ uint64(p))
	}
	return int64(z >> 1)
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// makeLanes generates every lane's walks from the run seed: all paths
// in turn, walkersPerPath times. Lane l starts on path l so the lanes
// are not in lockstep on one path.
func makeLanes(seed int64, nLanes int, surveys bool) []*lane {
	campus := scenario.NewAssets(scenario.Campus(), serverSeed+100)
	place := campus.Place
	lanes := make([]*lane, nLanes)
	var wg sync.WaitGroup
	for l := range lanes {
		lanes[l] = &lane{id: l, ref: map[*walk]uint64{}}
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for r := 0; r < walkersPerPath; r++ {
				for k := range place.Paths {
					p := (ln.id + k) % len(place.Paths)
					ln.walks = append(ln.walks, makeWalk(campus, seed, ln.id, p, r, surveys))
				}
			}
		}(lanes[l])
	}
	wg.Wait()
	return lanes
}

func makeWalk(campus *scenario.Assets, seed int64, l, p, r int, surveys bool) *walk {
	path := campus.Place.Paths[p]
	rnd := rand.New(rand.NewSource(mix(seed, int64(l), int64(p), int64(r), 1)))
	wk := walker.New(campus.Place.World, path.Line, campus.DefaultWalkerConfig(), rnd)
	w := &walk{path: p, walker: r, seed: mix(seed, int64(l), int64(p), int64(r), 2)}
	w.start, _ = path.Line.At(0)
	for !wk.Done() {
		snap, truth := wk.Next(true)
		w.snaps = append(w.snaps, snap)
		w.truth = append(w.truth, truth)
	}
	if surveys {
		// Re-survey existing campus points, alternating maps, so the
		// stores keep compacting while the map does not grow.
		srnd := rand.New(rand.NewSource(mix(seed, int64(l), int64(p), int64(r), 3)))
		for i := range w.snaps {
			mapID, db := offload.MapWiFi, campus.WiFiDB
			if i%2 == 1 {
				mapID, db = offload.MapCellular, campus.CellDB
			}
			fp := db.At(srnd.Intn(db.Len()))
			w.surveys = append(w.surveys, offload.Survey{Map: mapID, X: fp.Pos.X, Y: fp.Pos.Y, Vec: fp.Vec})
		}
	}
	return w
}

// laneRec is what one lane records during a phase.
type laneRec struct {
	latNS      []int64 // Localize round trip per epoch
	doneNS     []int64 // when each of those epochs completed, since the phase began
	helloNS    []int64 // Hello round trip per session
	epochs     int
	failed     int
	fallbacks  int // served with OK=false: no scheme available, last good position answered
	surveys    int
	reconnects int
	selected   map[string]int
	posErr     [][]float64 // per walk of the first pass: distance of each served position from the truth, m
	mismatched []*walk     // walks whose complete run differed from the lane's reference digest
}

// phase configures one run of every lane.
type phase struct {
	d        time.Duration // start no epoch after d, once the first pass is done
	fullPass bool          // finish one full pass of every path even past d
	compare  bool          // completed walks must reproduce the lane's reference digests

	start, until time.Time // set by run
}

// phaseResult merges every lane's record.
type phaseResult struct {
	lanes   []*laneRec
	elapsed time.Duration
}

func (r *phaseResult) epochs() (n int) {
	for _, l := range r.lanes {
		n += l.epochs
	}
	return n
}

func (r *phaseResult) failed() (n int) {
	for _, l := range r.lanes {
		n += l.failed
	}
	return n
}

// run drives all lanes concurrently through the stack.
func (st *stack) run(lanes []*lane, ph phase) *phaseResult {
	res := &phaseResult{lanes: make([]*laneRec, len(lanes))}
	var wg sync.WaitGroup
	ph.start = time.Now()
	ph.until = ph.start.Add(ph.d)
	for i, ln := range lanes {
		rec := &laneRec{selected: map[string]int{}}
		res.lanes[i] = rec
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			st.runLane(ln, ph, rec)
		}(ln)
	}
	wg.Wait()
	res.elapsed = time.Since(ph.start)
	return res
}

func (st *stack) runLane(ln *lane, ph phase, rec *laneRec) {
	for pass := 0; ; pass++ {
		first := ph.fullPass && pass == 0
		for _, w := range ln.walks {
			if !first && !time.Now().Before(ph.until) {
				return
			}
			digest, done := st.runWalk(ln, w, ph, first, rec)
			if !done {
				continue
			}
			if want, ok := ln.ref[w]; !ok {
				ln.ref[w] = digest
			} else if ph.compare && want != digest {
				rec.mismatched = append(rec.mismatched, w)
			}
		}
	}
}

// runWalk serves one walk over one fresh session. It reports the digest
// of the served results and whether the walk ran to its end without a
// failed epoch. A walk of the first full pass runs to its end whatever
// the time, and its position errors are recorded.
func (st *stack) runWalk(ln *lane, w *walk, ph phase, first bool, rec *laneRec) (uint64, bool) {
	id := fmt.Sprintf("lane%d-path%d-walker%d-%d", ln.id, w.path, w.walker, ln.opened)
	ln.opened++
	conn, err := st.dial()
	if err != nil {
		rec.epochs++
		rec.failed++
		return 0, false
	}
	c := offload.NewClient(conn, id)
	c.SetTimeout(10 * time.Second)
	c.SetReconnect(st.dial, offload.Backoff{Min: 20 * time.Millisecond, Max: time.Second, Attempts: 5, Seed: mix(int64(ln.id), int64(ln.opened))})
	if st.tr != nil {
		c.SetTracer(st.tr.tracer)
	}
	defer func() {
		rec.reconnects += c.Reconnects()
		_ = c.Close()
	}()

	st.seeds.mu.Lock()
	st.seeds.seed.Store(w.seed)
	t0 := time.Now()
	err = c.Hello(w.start)
	rec.helloNS = append(rec.helloNS, int64(time.Since(t0)))
	st.seeds.mu.Unlock()
	if err != nil {
		rec.epochs++
		rec.failed++
		return 0, false
	}

	var posErr []float64
	h := fnv.New64a()
	var buf [4]byte
	for i, snap := range w.snaps {
		if !first && !time.Now().Before(ph.until) {
			return 0, false
		}
		if w.surveys != nil {
			sv := &w.surveys[i]
			if err := c.SubmitSurvey(sv.Map, geo.Pt(sv.X, sv.Y), sv.Vec); err != nil {
				rec.epochs++
				rec.failed++
				return 0, false
			}
			rec.surveys++
		}
		t := time.Now()
		res, err := c.Localize(snap)
		d := time.Since(t)
		rec.epochs++
		if err != nil {
			rec.failed++
			return 0, false
		}
		rec.latNS = append(rec.latNS, int64(d))
		rec.doneNS = append(rec.doneNS, int64(t.Add(d).Sub(ph.start)))
		for _, v := range [...]float64{res.X, res.Y, res.BestX, res.BestY} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rec.failed++
				return 0, false
			}
			binary.BigEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
			h.Write(buf[:])
		}
		ok := byte(0)
		if res.OK {
			ok = 1
		} else {
			rec.fallbacks++
		}
		h.Write([]byte{res.Env, ok})
		h.Write([]byte(res.Selected))
		rec.selected[res.Selected]++
		if first {
			posErr = append(posErr, res.Pos().Sub(w.truth[i]).Norm())
		}
	}
	if first {
		rec.posErr = append(rec.posErr, posErr)
	}
	return h.Sum64(), true
}
