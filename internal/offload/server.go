package offload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/sensing"
	"repro/internal/sharedcompute"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// ServerConfig configures a multi-session offload server.
type ServerConfig struct {
	// Factory builds one fresh framework per session. Required; must
	// be safe for concurrent use.
	Factory core.FrameworkFactory

	// MaxSessions caps concurrent sessions; further hellos are
	// rejected gracefully with a Welcome{OK: false}. 0 = unlimited.
	MaxSessions int

	// IdleTimeout evicts sessions with no served epoch for this long.
	// 0 = never evict.
	IdleTimeout time.Duration

	// Metrics receives the server's RED-style instruments (sessions
	// opened/closed/rejected/evicted, active-session gauge, epochs
	// served, frame bytes in/out, step-latency histogram,
	// connection-error counter). Nil disables exposition; the serving
	// path then pays only nil checks.
	Metrics *telemetry.Registry

	// MapStores routes MsgSurvey submissions to the shared radio-map
	// stores, keyed by map ID (MapWiFi, MapCellular). Nil or
	// missing entries drop submissions (counted); the stores themselves
	// are shared with the Factory's schemes, so accepted points become
	// visible to every session at the next snapshot rebuild.
	MapStores map[byte]*mapstore.Store

	// StepWorkers fans every session's per-scheme work out to a
	// persistent worker pool of this size (core.WithParallel) so
	// multi-core servers cut per-epoch latency. <= 1 keeps sequential
	// scheme execution. Results are bit-identical either way.
	StepWorkers int

	// EpochTimeout bounds each session's protocol I/O: a session that
	// takes longer than this to deliver one epoch's frames (or to
	// accept its result) is closed, with deadline_timeouts_total
	// incremented — a stalled or half-dead client can no longer pin a
	// serving goroutine forever. It also bounds the handshake read.
	// 0 = no deadline.
	EpochTimeout time.Duration

	// BatchTick enables the batch-per-tick scheduler: ready epochs from
	// all sessions are collected for up to this long (a full batch
	// fires sooner), their shared fingerprint-distance columns are
	// precomputed once per unique observation against the pinned map
	// snapshots, and the sessions are stepped across a worker pool.
	// Results are bit-identical to per-connection stepping (see
	// scheduler). 0 keeps the per-connection step loop.
	BatchTick time.Duration

	// BatchWorkers sizes the batch scheduler's session-step worker
	// pool. <= 0 defaults to runtime.NumCPU().
	BatchWorkers int

	// BatchStores are the shared radio-map stores the scheduler
	// precomputes distance columns against, keyed like MapStores
	// (MapWiFi routes each epoch's WiFi scan, MapCellular its cell
	// scan). Nil falls back to MapStores; sessions whose schemes read
	// other maps simply miss the cache and compute locally.
	BatchStores map[byte]*mapstore.Store

	// SharedCompute enables the cross-session shared-compute cache
	// (internal/sharedcompute): per-snapshot RSSI likelihood rows, HMM
	// tracker state, and cell representatives are computed once per
	// map compaction and shared by every session pinning that
	// snapshot, instead of once per session. Entries are
	// refcount-pinned per session and evicted when the last pinning
	// session closes. Results are Float64bits-identical to private
	// computation (DESIGN.md §16). Requires shared map stores
	// (BatchStores or MapStores); composes with, but does not require,
	// BatchTick — with batching on, the scheduler additionally
	// prewarms likelihood rows through the fused kernel.
	SharedCompute bool

	// Tracer enables end-to-end span tracing: one "server.frame" span
	// per served epoch (continuing the client's trace when the v5
	// context frame carries one), with read/queue/step/write children
	// and per-scheme spans bridged from the framework's epoch traces.
	// Nil keeps tracing off — no observer is attached and the serving
	// path allocates nothing extra.
	Tracer *trace.Tracer

	// PprofLabels wraps serving goroutines (session), batch workers
	// (session + batch tick), and per-scheme work in runtime/pprof
	// labels so CPU profiles of a busy server decompose by session and
	// scheme. Off by default: labeling allocates per epoch.
	PprofLabels bool

	// MaxProtocol caps the version the handshake negotiates, for tests
	// and staged rollouts (a v5 build serving at v4 must ignore trace
	// context exactly like a real v4 server). 0 = ProtocolVersion;
	// otherwise it must be v4 or v5.
	MaxProtocol byte

	// SurveyIngest, when set, receives every MsgSurvey submission
	// instead of the local MapStores — cluster followers use it to
	// forward crowdsourced points to the replication leader, whose
	// compactions then stream back to every node. A returned error
	// drops the submission (counted), never the session.
	SurveyIngest func(*Survey) error

	// ShipSession, when set, receives the freshly exported state of an
	// identified session after every served epoch (cluster.Handoff
	// replicates it to peer nodes). Called on the serving goroutine right
	// after the result is delivered, so it must only enqueue — never
	// block on the network. The blob is self-contained (offload.SessionState): a peer
	// that injects it continues the walk at exactly this epoch.
	ShipSession func(clientID string, seq uint32, state []byte)

	// FetchSession, when set, is consulted on a hello whose client
	// ID matches no locally detached session: a non-nil blob (obtained
	// from a handoff peer) is injected and resumed, so the client's walk
	// continues on this node with its exact state — zero restarted
	// walks even when the owning node was killed without warning. Nil
	// means no peer holds state and a fresh session opens.
	FetchSession func(clientID string) []byte

	// ReplayEntries / ReplayBytes bound each session's replay cache
	// (entries and encoded payload bytes; oldest evicted first, counted
	// by uniloc_replay_evictions_total). 0 uses the package defaults.
	ReplayEntries int
	ReplayBytes   int
}

// Server runs the UniLoc framework (all localization schemes, error
// prediction, and BMA) on behalf of phones. Each connection gets its
// own framework from the factory, so concurrent walks never share
// particle-filter, IODetector, or gating state — the paper's
// workstation similarly hosts the localization state per user (§IV-C).
type Server struct {
	mgr          *SessionManager
	stores       map[byte]*mapstore.Store
	surveyIngest func(*Survey) error
	shipSession  func(clientID string, seq uint32, state []byte)
	fetchSession func(clientID string) []byte
	epochTimeout time.Duration
	sched        *scheduler    // nil: per-connection stepping
	tracer       *trace.Tracer // nil: tracing off
	pprofLabels  bool
	maxProto     byte
	draining     atomic.Bool // Drain called: finish in-flight epochs, close cleanly
}

// NewServer builds a multi-session server from the config.
func NewServer(cfg ServerConfig) (*Server, error) {
	maxProto := cfg.MaxProtocol
	if maxProto == 0 {
		maxProto = ProtocolVersion
	}
	if maxProto < ProtocolV4 || maxProto > ProtocolVersion {
		return nil, fmt.Errorf("offload: MaxProtocol v%d outside the supported v%d..v%d", maxProto, ProtocolV4, ProtocolVersion)
	}
	mgr, err := NewSessionManager(cfg.Factory, cfg.MaxSessions, cfg.IdleTimeout, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	mgr.SetStepWorkers(cfg.StepWorkers)
	mgr.SetTracer(cfg.Tracer)
	mgr.SetPprofLabels(cfg.PprofLabels)
	mgr.SetReplayCaps(cfg.ReplayEntries, cfg.ReplayBytes)
	s := &Server{
		mgr: mgr, stores: cfg.MapStores, surveyIngest: cfg.SurveyIngest,
		shipSession: cfg.ShipSession, fetchSession: cfg.FetchSession,
		epochTimeout: cfg.EpochTimeout,
		tracer:       cfg.Tracer, pprofLabels: cfg.PprofLabels, maxProto: maxProto,
	}
	batchStores := cfg.BatchStores
	if batchStores == nil {
		batchStores = cfg.MapStores
	}
	if cfg.SharedCompute && len(batchStores) > 0 {
		// Attach before the scheduler is built and before any session
		// opens, so every framework and batch sees the cache.
		mgr.SetSharedCompute(sharedcompute.NewCache(cfg.Metrics), batchStores)
	}
	if cfg.BatchTick > 0 {
		s.sched = newScheduler(cfg.BatchTick, cfg.BatchWorkers, batchStores, mgr)
	}
	return s, nil
}

// Close releases the server's background resources (the batch
// scheduler's goroutine, when batching is enabled). Serving goroutines
// that outlive Close fall back to inline stepping; results are
// unchanged. Idempotent.
func (s *Server) Close() {
	if s.sched != nil {
		s.sched.close()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins a graceful shutdown of serving: every session finishes
// its in-flight epoch, delivers the result, and is then closed at the
// epoch boundary so the client sees a clean EOF (and its reconnect
// path takes it to another node) instead of a deadline timeout.
// Connections that have not reached an epoch boundary when the grace
// period runs out are force-closed. The caller is responsible for
// closing the listener first — Drain stops sessions, not accepts.
// Returns how many connections the grace expiry had to force-close.
// Idempotent; concurrent calls all wait out the grace period.
func (s *Server) Drain(grace time.Duration) int {
	s.draining.Store(true)
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if s.mgr.liveConns() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s.mgr.DisconnectAll()
}

// Sessions exposes the server's session manager (stats, manual
// eviction).
func (s *Server) Sessions() *SessionManager { return s.mgr }

// Stats returns a snapshot of the server's session and epoch counters.
func (s *Server) Stats() Stats { return s.mgr.Stats() }

// handshake reads the client's hello and admits or rejects the
// session. A nil session with a nil error means the client was
// rejected gracefully.
func (s *Server) handshake(conn net.Conn) (*Session, error) {
	t, payload, err := ReadFrame(conn)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil // client went away before the handshake
		}
		return nil, err
	}
	if t != MsgHello {
		return nil, fmt.Errorf("%w: expected hello, got type %d", ErrProtocol, t)
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	// The session runs at the lower of the server's maximum and the
	// client's hello, so a v5 client against a v4-capped server simply
	// runs without trace propagation. A hello below v4 is refused.
	ver, err := Negotiate(s.maxProto, hello.Version)
	if err != nil {
		reject := &Welcome{Version: s.maxProto, Reason: err.Error()}
		_, _ = WriteFrame(conn, MsgWelcome, EncodeWelcome(reject))
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	// A re-handshake under a known client ID re-attaches the detached
	// session: framework state and the per-seq result cache survive the
	// reconnect, so the hello's start position is deliberately ignored —
	// resetting there would double-advance the walk. With no local
	// parked session, a peer may hold this walk's shipped state (its
	// owning node died, or the router moved the key): a successful
	// fetch+inject makes the resume work as if the walk had always
	// lived here. Any failure falls through to a fresh Open at the
	// hello's start position.
	sess := s.mgr.Resume(hello.ClientID, conn)
	if sess == nil && s.fetchSession != nil && hello.ClientID != "" {
		if blob := s.fetchSession(hello.ClientID); blob != nil && s.mgr.Inject(blob) == nil {
			sess = s.mgr.Resume(hello.ClientID, conn)
		}
	}
	if sess != nil {
		sess.proto = ver
		welcome := &Welcome{Version: ver, OK: true, SessionID: sess.ID, Resumed: true}
		if _, err := WriteFrame(conn, MsgWelcome, EncodeWelcome(welcome)); err != nil {
			s.mgr.Detach(sess) // park again for the next attempt
			return nil, err
		}
		return sess, nil
	}
	sess, err = s.mgr.Open(hello.ClientID, geo.Pt(hello.StartX, hello.StartY), conn)
	if err != nil {
		reject := &Welcome{Version: ver, Reason: err.Error()}
		_, _ = WriteFrame(conn, MsgWelcome, EncodeWelcome(reject))
		if errors.Is(err, ErrServerFull) {
			return nil, nil // graceful rejection, not a transport failure
		}
		return nil, err
	}
	sess.proto = ver
	welcome := &Welcome{Version: ver, OK: true, SessionID: sess.ID}
	if _, err := WriteFrame(conn, MsgWelcome, EncodeWelcome(welcome)); err != nil {
		s.mgr.Close(sess)
		return nil, err
	}
	return sess, nil
}

// meteredConn counts every byte crossing a connection into the
// server's frame-byte counters (atomic adds; no-ops without a
// registry).
type meteredConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Serve processes one connection: session handshake, then epochs until
// EOF or error. It returns nil on clean shutdown (client closed the
// connection, graceful rejection, or idle eviction).
func (s *Server) Serve(conn net.Conn) error {
	err := s.serve(&meteredConn{Conn: conn, in: s.mgr.met.bytesIn, out: s.mgr.met.bytesOut})
	if err != nil {
		s.mgr.met.connErrors.Inc()
	}
	return err
}

// armDeadline applies the per-session epoch deadline, if configured.
func (s *Server) armDeadline(conn net.Conn) {
	if s.epochTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(s.epochTimeout))
	}
}

// isTimeout reports whether err is a deadline hit.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) serve(conn net.Conn) error {
	defer func() { _ = conn.Close() }()
	if s.draining.Load() {
		// A connection that raced the drain (the listener closes first,
		// but pipes and in-flight accepts can still deliver one) gets a
		// clean close, not a session: the client's reconnect path takes
		// it elsewhere.
		return nil
	}
	s.armDeadline(conn) // the handshake is bounded too
	sess, err := s.handshake(conn)
	if err != nil || sess == nil {
		if err != nil && isTimeout(err) {
			s.mgr.noteDeadlineTimeout()
			return nil // stalled before handshake: quiet eviction
		}
		return err
	}
	detach := false
	defer func() {
		if detach {
			s.mgr.Detach(sess)
		} else {
			s.mgr.Close(sess)
		}
	}()
	// ioFail maps a mid-stream I/O failure to serve's return value:
	// evictions and deadline hits stay quiet closes, any other
	// transport/protocol failure parks the session for seq-numbered
	// resume (Detach) instead of discarding its walk state.
	ioFail := func(err error) error {
		if sess.evicted.Load() {
			return nil // reaper closed the connection under us
		}
		if isTimeout(err) {
			// The client stalled mid-epoch: evict quietly, counted.
			s.mgr.noteDeadlineTimeout()
			return nil
		}
		detach = true
		return nil
	}
	if s.pprofLabels {
		// Label the serving goroutine so CPU/goroutine profiles of a
		// busy server decompose by session (batch workers and scheme
		// execution add their own labels on top).
		var loopErr error
		pprof.Do(context.Background(), pprof.Labels("session", sess.spanLabel),
			func(context.Context) { loopErr = s.epochLoop(conn, sess, ioFail) })
		return loopErr
	}
	return s.epochLoop(conn, sess, ioFail)
}

// emitChild synthesizes a completed child span of the frame span from
// a start timestamp taken on this goroutine.
func (s *Server) emitChild(frame *trace.Span, sess *Session, name string, startNS int64) {
	fctx := frame.Context()
	if !fctx.Valid() {
		return
	}
	s.tracer.Emit(&trace.Record{
		Trace:   fctx.Trace.String(),
		Span:    s.tracer.NewSpanID().String(),
		Parent:  fctx.Span.String(),
		Name:    name,
		Session: sess.spanLabel,
		StartNS: startNS,
		DurNS:   s.tracer.Now() - startNS,
	})
}

// epochLoop serves epochs on an established session until EOF or
// error. With a tracer attached, each served epoch becomes one
// "server.frame" span — continuing the client's trace when the v5
// context frame carried a span context, a fresh root otherwise — with
// server.read/server.queue/step/server.write children accounting for
// where the frame's wall time went.
func (s *Server) epochLoop(conn net.Conn, sess *Session, ioFail func(error) error) error {
	for {
		s.armDeadline(conn) // one deadline window per epoch exchange
		snap, seq, tctx, arrived, err := s.readEpoch(conn)
		if err == io.EOF {
			return nil // clean shutdown: the walk is over, no resume
		}
		if err != nil {
			return ioFail(err)
		}
		var frame trace.Span
		if s.tracer.Enabled() {
			// The span starts when the epoch's first frame arrived, so
			// idle time between epochs (the client walking) never counts.
			frame = s.tracer.StartAt("server.frame", tctx, arrived)
			// Frame spans are the server's unit of tail latency even when
			// they continue a client trace, so they feed the exemplar
			// collector as complete-trace roots.
			frame.SetRoot(true)
			frame.SetSession(sess.spanLabel)
			frame.Attr("epoch", snap.Epoch)
			if seq != 0 {
				frame.Attr("seq", seq)
			}
			s.emitChild(&frame, sess, "server.read", s.tracer.At(arrived))
			sess.spans.SetParent(frame.Context())
		}
		if cached := sess.replay.get(seq); seq != 0 && cached != nil {
			// Reconnect replay: the client re-sent an epoch whose result
			// was computed but lost in flight. Answer from the per-seq
			// cache — re-stepping would double-advance PDR/HMM state.
			s.mgr.noteReplay()
			frame.Attr("replay", true)
			_, err := WriteFrame(conn, MsgResult, cached)
			frame.End()
			if err != nil {
				return ioFail(err)
			}
			if s.draining.Load() {
				if sess.evicted.CompareAndSwap(false, true) {
					s.mgr.noteDrained()
				}
				return nil
			}
			continue
		}
		var res core.StepResult
		var stepDur time.Duration
		if s.sched != nil {
			res, stepDur = s.sched.step(sess, snap, frame.Context())
		} else {
			// Unbatched: migrate this session's shared-compute pins at
			// the epoch boundary (batched sessions repin per tick).
			s.mgr.RepinShared(sess)
			t0 := time.Now()
			res = sess.fw.Step(snap)
			stepDur = time.Since(t0)
		}
		s.mgr.RecordEpoch(sess, stepDur)

		out := &Result{
			X: res.BMA.X, Y: res.BMA.Y,
			BestX: res.Best.X, BestY: res.Best.Y,
			Env: byte(res.Env),
			OK:  res.OK,
		}
		if res.BestIdx >= 0 {
			out.Selected = res.Schemes[res.BestIdx].Name
		}
		payload := EncodeResult(out)
		if seq != 0 {
			sess.lastSeq = seq
			s.mgr.noteReplayEvictions(sess.replay.put(seq, payload))
		}
		var wStart int64
		if frame.Recording() {
			wStart = s.tracer.Now()
		}
		_, err = WriteFrame(conn, MsgResult, payload)
		if frame.Recording() {
			s.emitChild(&frame, sess, "server.write", wStart)
			frame.End()
		}
		if err != nil {
			return ioFail(err)
		}
		s.ship(sess)
		if s.draining.Load() {
			// Graceful drain: the in-flight epoch was finished and its
			// result delivered; now close at the epoch boundary (serve's
			// defer closes the conn) so the client sees a clean EOF and
			// reconnects — to another node — instead of timing out.
			if sess.evicted.CompareAndSwap(false, true) {
				s.mgr.noteDrained()
			}
			return nil
		}
	}
}

// ship exports the session's state and hands it to the ShipSession
// hook at an epoch boundary. The exported blob includes the epoch just
// served (framework post-step, replay cache holding its result), so a
// peer injecting it either answers the client's replay of that epoch
// from the cache or steps the next one — never a double advance. The
// epoch before the next ship lands is covered the other way: the
// client re-sends it, and re-stepping it from this state is
// deterministic. Only identified sessions ship; anonymous ones cannot
// be re-attached anywhere.
func (s *Server) ship(sess *Session) {
	if s.shipSession == nil || sess.ClientID == "" {
		return
	}
	var vers map[byte]uint64
	if len(s.stores) > 0 {
		vers = make(map[byte]uint64, len(s.stores))
		for id, st := range s.stores {
			vers[id] = st.Version()
		}
	}
	blob, err := s.mgr.ExportState(sess, vers)
	if err != nil {
		return // unsnapshotable session (untracked RNG): serve-local only
	}
	s.shipSession(sess.ClientID, sess.lastSeq, blob)
}

// readEpoch assembles one snapshot from frames up to MsgEpochEnd,
// returning the epoch's sequence number, the v5 trace context (zero
// without one), and — when tracing — the arrival time of the epoch's
// first frame (the idle gap between epochs belongs to the client, not
// to the frame span).
func (s *Server) readEpoch(r io.Reader) (*sensing.Snapshot, uint32, trace.SpanContext, time.Time, error) {
	snap := &sensing.Snapshot{}
	var seq uint32
	var tctx trace.SpanContext
	var arrived time.Time
	gotContext := false
	first := true
	fail := func(err error) (*sensing.Snapshot, uint32, trace.SpanContext, time.Time, error) {
		return nil, 0, trace.SpanContext{}, arrived, err
	}
	for {
		t, payload, err := ReadFrame(r)
		if err != nil {
			if err == io.EOF && !gotContext {
				return fail(io.EOF)
			}
			if err == io.ErrUnexpectedEOF {
				return fail(io.EOF)
			}
			return fail(err)
		}
		if first {
			first = false
			if s.tracer.Enabled() {
				arrived = time.Now()
			}
		}
		switch t {
		case MsgContext:
			ctx, sq, tc, err := DecodeContext(payload)
			if err != nil {
				return fail(err)
			}
			ctx.WiFi, ctx.Cell = snap.WiFi, snap.Cell
			ctx.Step, ctx.GNSS, ctx.Landmark = snap.Step, snap.GNSS, snap.Landmark
			snap = ctx
			seq = sq
			tctx = tc
			gotContext = true
		case MsgStepUpdate:
			step, err := DecodeStep(payload)
			if err != nil {
				return fail(err)
			}
			snap.Step = step
		case MsgWiFiVector:
			v, err := DecodeVector(payload)
			if err != nil {
				return fail(err)
			}
			snap.WiFi = v
		case MsgCellVector:
			v, err := DecodeVector(payload)
			if err != nil {
				return fail(err)
			}
			snap.Cell = v
		case MsgGNSSFix:
			f, err := DecodeFix(payload)
			if err != nil {
				return fail(err)
			}
			snap.GNSS = f
		case MsgLandmark:
			l, err := DecodeLandmark(payload)
			if err != nil {
				return fail(err)
			}
			snap.Landmark = l
		case MsgSurvey:
			sv, err := DecodeSurvey(payload)
			if err != nil {
				return fail(err)
			}
			s.ingestSurvey(sv)
		case MsgEpochEnd:
			if !gotContext {
				return fail(fmt.Errorf("%w: epoch ended without context", ErrProtocol))
			}
			return snap, seq, tctx, arrived, nil
		default:
			return fail(fmt.Errorf("%w: unexpected message type %d", ErrProtocol, t))
		}
	}
}

// ingestSurvey routes one crowdsourced survey point to its shared map
// store — or, with a SurveyIngest hook installed, to the hook (cluster
// followers forward to the replication leader this way). Submissions
// for unknown maps, or with vectors the store deems unusable, are
// dropped and counted — never an error that would kill the session's
// epoch stream.
func (s *Server) ingestSurvey(sv *Survey) {
	if s.surveyIngest != nil {
		if err := s.surveyIngest(sv); err != nil {
			s.mgr.met.surveysDropped.Inc()
			return
		}
		s.mgr.met.surveysIngested.Inc()
		return
	}
	st := s.stores[sv.Map]
	if st == nil {
		s.mgr.met.surveysDropped.Inc()
		return
	}
	fp := fingerprint.Fingerprint{Pos: geo.Pt(sv.X, sv.Y), Vec: sv.Vec}
	if err := st.Submit(fp); err != nil {
		s.mgr.met.surveysDropped.Inc()
		return
	}
	s.mgr.met.surveysIngested.Inc()
}

// Accept-loop backoff bounds for transient Accept errors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// ListenAndServe accepts connections on ln and serves each in its own
// goroutine until the listener is closed. Transient Accept errors
// (e.g. EMFILE, ECONNABORTED) are retried with capped exponential
// backoff instead of killing the server. Connection-level errors are
// reported through errf (may be nil). If an idle timeout is
// configured, a reaper goroutine evicts quiet sessions while the loop
// runs.
func (s *Server) ListenAndServe(ln net.Listener, errf func(error)) {
	stopReaper := s.startReaper()
	defer stopReaper()

	var wg sync.WaitGroup
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				break
			}
			s.mgr.noteAcceptError()
			if errf != nil {
				errf(fmt.Errorf("offload: accept: %w (retrying in %v)", err, backoff))
			}
			time.Sleep(backoff)
			backoff *= 2
			if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Serve(conn); err != nil && errf != nil {
				errf(err)
			}
		}()
	}
	wg.Wait()
}

// startReaper launches the idle-eviction goroutine and returns its
// stop function. With no idle timeout configured it is a no-op.
func (s *Server) startReaper() func() {
	if s.mgr.idleTimeout <= 0 {
		return func() {}
	}
	period := s.mgr.idleTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s.mgr.EvictIdle()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
