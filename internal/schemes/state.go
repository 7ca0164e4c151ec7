package schemes

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/particle"
	"repro/internal/prng"
	"repro/internal/statecodec"
)

// StateCodec is implemented by schemes whose walk state can migrate
// between nodes. AppendState serializes every bit of mutable state
// that influences future Estimate outputs; RestoreState installs a
// previously appended blob so the scheme continues bit-identically to
// an uninterrupted run. Schemes that do not implement the interface
// are stateless by contract (GPS): the framework snapshot records an
// empty blob for them.
//
// Restore is always applied on top of a fresh Reset — the blob
// overwrites the post-Reset state (including any RNG draws Reset
// made), it does not patch a mid-walk scheme.
type StateCodec interface {
	// AppendState appends the scheme's mutable state to dst and
	// returns the extended slice. It fails when the state cannot be
	// captured faithfully — e.g. a randomized scheme whose RNG stream
	// is not tracked (TrackSource).
	AppendState(dst []byte) ([]byte, error)
	// RestoreState installs a blob produced by AppendState.
	RestoreState(b []byte) error
}

// TrackSource registers the counting RNG source p.rnd was built over,
// making the PDR scheme snapshotable: the source's (seed, draws) pair
// travels in the state blob and restoring it replays the stream
// position exactly. The caller guarantees rnd == rand.New(src); call
// before the first Reset.
func (p *PDR) TrackSource(src *prng.Source) { p.src = src }

// TrackSource registers the counting RNG source f.rnd was built over
// (see PDR.TrackSource).
func (f *Fusion) TrackSource(src *prng.Source) { f.src = src }

// appendFilter serializes a particle filter's live particle set.
func appendFilter(dst []byte, f *particle.Filter) []byte {
	if f == nil {
		return statecodec.AppendBool(dst, false)
	}
	dst = statecodec.AppendBool(dst, true)
	dst = statecodec.AppendU32(dst, uint32(len(f.Particles)))
	for i := range f.Particles {
		p := &f.Particles[i]
		dst = statecodec.AppendF64(dst, p.Pos.X)
		dst = statecodec.AppendF64(dst, p.Pos.Y)
		dst = statecodec.AppendF64(dst, p.W)
	}
	return dst
}

// readFilter restores a particle set into f (which must already
// exist when the blob carries one — Restore runs after Reset).
func readFilter(r *statecodec.Reader, f *particle.Filter) error {
	if !r.Bool() {
		return r.Err()
	}
	if f == nil {
		return fmt.Errorf("schemes: state carries particles but filter is nil (Restore before Reset?)")
	}
	n := r.Count(3 * 8) // x, y, weight
	if r.Err() != nil {
		return r.Err()
	}
	ps := make([]particle.Particle, n)
	for i := range ps {
		ps[i].Pos = geo.Pt(r.F64(), r.F64())
		ps[i].W = r.F64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	f.RestoreParticles(ps)
	return nil
}

// appendHeadings serializes the recent-heading window.
func appendHeadings(dst []byte, hs []float64) []byte {
	dst = statecodec.AppendU32(dst, uint32(len(hs)))
	for _, h := range hs {
		dst = statecodec.AppendF64(dst, h)
	}
	return dst
}

func readHeadings(r *statecodec.Reader, dst []float64) []float64 {
	n := int(r.U32())
	dst = dst[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// AppendState implements StateCodec for the motion scheme: RNG stream
// position, particle cloud, and the dead-reckoning aggregates the
// features derive from.
func (p *PDR) AppendState(dst []byte) ([]byte, error) {
	if p.src == nil {
		return nil, fmt.Errorf("schemes: pdr RNG stream is untracked; wire prng.Source via TrackSource")
	}
	seed, draws := p.src.State()
	dst = statecodec.AppendI64(dst, seed)
	dst = statecodec.AppendU64(dst, draws)
	dst = appendFilter(dst, p.filter)
	dst = statecodec.AppendF64(dst, p.lastEst.X)
	dst = statecodec.AppendF64(dst, p.lastEst.Y)
	dst = statecodec.AppendBool(dst, p.haveEst)
	dst = statecodec.AppendF64(dst, p.distLandmark)
	dst = appendHeadings(dst, p.headings)
	dst = statecodec.AppendU32(dst, uint32(p.repaired))
	dst = statecodec.AppendU32(dst, uint32(p.steps))
	return dst, nil
}

// RestoreState implements StateCodec.
func (p *PDR) RestoreState(b []byte) error {
	if p.src == nil {
		return fmt.Errorf("schemes: pdr RNG stream is untracked; wire prng.Source via TrackSource")
	}
	r := statecodec.NewReader(b)
	seed, draws := r.I64(), r.U64()
	if err := readFilter(r, p.filter); err != nil {
		return err
	}
	p.lastEst = geo.Pt(r.F64(), r.F64())
	p.haveEst = r.Bool()
	p.distLandmark = r.F64()
	p.headings = readHeadings(r, p.headings)
	p.repaired = int(r.U32())
	p.steps = int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	// Last: overwrite whatever draws Reset spent seeding the filter.
	p.src.Restore(seed, draws)
	return nil
}

// AppendState implements StateCodec for the fusion scheme. The
// density and likelihood caches are pure memoization over the pinned
// map view — they are rebuilt, not shipped.
func (f *Fusion) AppendState(dst []byte) ([]byte, error) {
	if f.src == nil {
		return nil, fmt.Errorf("schemes: fusion RNG stream is untracked; wire prng.Source via TrackSource")
	}
	seed, draws := f.src.State()
	dst = statecodec.AppendI64(dst, seed)
	dst = statecodec.AppendU64(dst, draws)
	dst = appendFilter(dst, f.filter)
	dst = statecodec.AppendF64(dst, f.lastEst.X)
	dst = statecodec.AppendF64(dst, f.lastEst.Y)
	dst = statecodec.AppendF64(dst, f.distLandmark)
	dst = appendHeadings(dst, f.headings)
	return dst, nil
}

// RestoreState implements StateCodec.
func (f *Fusion) RestoreState(b []byte) error {
	if f.src == nil {
		return fmt.Errorf("schemes: fusion RNG stream is untracked; wire prng.Source via TrackSource")
	}
	r := statecodec.NewReader(b)
	seed, draws := r.I64(), r.U64()
	if err := readFilter(r, f.filter); err != nil {
		return err
	}
	f.lastEst = geo.Pt(r.F64(), r.F64())
	f.distLandmark = r.F64()
	f.headings = readHeadings(r, f.headings)
	if err := r.Err(); err != nil {
		return err
	}
	f.densOK = false // cache keyed by (pos, version); recompute on demand
	f.src.Restore(seed, draws)
	return nil
}

// AppendState implements StateCodec for RSSI fingerprinting: the HMM
// tracker's belief (valid only at the pinned map version) and the
// device-heterogeneity calibrator's regression accumulators.
func (f *Fingerprinting) AppendState(dst []byte) ([]byte, error) {
	dst = statecodec.AppendU64(dst, f.trackerVer)
	belief, prev, cur, init := f.tracker.ExportState()
	dst = statecodec.AppendBool(dst, init)
	dst = statecodec.AppendF64(dst, prev.X)
	dst = statecodec.AppendF64(dst, prev.Y)
	dst = statecodec.AppendF64(dst, cur.X)
	dst = statecodec.AppendF64(dst, cur.Y)
	dst = statecodec.AppendU32(dst, uint32(len(belief)))
	for _, v := range belief {
		dst = statecodec.AppendF64(dst, v)
	}
	if f.calibrator == nil {
		dst = statecodec.AppendBool(dst, false)
	} else {
		dst = statecodec.AppendBool(dst, true)
		dst = f.calibrator.appendState(dst)
	}
	return dst, nil
}

// RestoreState implements StateCodec. When the restoring node's map
// view is at a different version than the snapshot pinned, the belief
// is dropped and the tracker restarts from uniform — exactly the
// established behavior on a mid-walk compaction swap. Replicated
// followers at matching versions hold bit-identical snapshots, so the
// normal migration path restores the belief losslessly.
func (f *Fingerprinting) RestoreState(b []byte) error {
	r := statecodec.NewReader(b)
	ver := r.U64()
	init := r.Bool()
	prev := geo.Pt(r.F64(), r.F64())
	cur := geo.Pt(r.F64(), r.F64())
	n := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	belief := make([]float64, n)
	for i := range belief {
		belief[i] = r.F64()
	}
	hasCal := r.Bool()
	if hasCal && f.calibrator != nil {
		if err := f.calibrator.readState(r); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if view := f.m.View(); view.Version() != f.trackerVer {
		f.rebuildTracker(view)
	}
	if ver == f.trackerVer {
		f.tracker.RestoreState(belief, prev, cur, init)
	}
	return nil
}

// appendState serializes the calibrator's mutable regression state.
func (c *Calibrator) appendState(dst []byte) []byte {
	dst = statecodec.AppendF64(dst, c.n)
	dst = statecodec.AppendF64(dst, c.sx)
	dst = statecodec.AppendF64(dst, c.sy)
	dst = statecodec.AppendF64(dst, c.sxx)
	dst = statecodec.AppendF64(dst, c.sxy)
	dst = statecodec.AppendU32(dst, uint32(c.pairs))
	dst = statecodec.AppendF64(dst, c.alpha)
	dst = statecodec.AppendF64(dst, c.delta)
	dst = statecodec.AppendBool(dst, c.ready)
	return dst
}

func (c *Calibrator) readState(r *statecodec.Reader) error {
	c.n = r.F64()
	c.sx = r.F64()
	c.sy = r.F64()
	c.sxx = r.F64()
	c.sxy = r.F64()
	c.pairs = int(r.U32())
	c.alpha = r.F64()
	c.delta = r.F64()
	c.ready = r.Bool()
	return r.Err()
}
