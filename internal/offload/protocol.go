// Package offload implements UniLoc's computation-offloading path
// (§IV-C): the phone pre-processes raw sensor data locally (the 50 Hz
// inertial stream becomes one 4-byte step update per epoch), ships the
// compact intermediate results to a server over a length-prefixed
// binary protocol, and the server runs all localization schemes, error
// prediction and BMA, returning the fused position.
//
// The same protocol runs over real TCP sockets (see examples/offload
// and cmd/uniloc-server) and over net.Pipe in tests; Table V's
// response-time decomposition combines the protocol's byte counts with
// a radio link model and measured compute times.
package offload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/gnss"
	"repro/internal/imu"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

// MsgType identifies a protocol frame.
type MsgType byte

// Protocol message types.
const (
	MsgStepUpdate MsgType = iota + 1 // 4-byte pre-processed inertial update
	MsgWiFiVector                    // online WiFi RSSI scan
	MsgCellVector                    // online cellular RSSI scan
	MsgGNSSFix                       // GPS coordinate (sent only when reliable)
	MsgContext                       // light + magnetic variance + epoch header
	MsgLandmark                      // detected landmark signature
	MsgEpochEnd                      // end of one epoch's upload
	MsgResult                        // server → phone: fused location
	MsgHello                         // phone → server: session handshake
	MsgWelcome                       // server → phone: handshake reply
	MsgSurvey                        // phone → server: crowdsourced survey point
)

// Wire protocol versions. Version 4 added the per-session epoch
// sequence number on MsgContext and the Resumed flag on MsgWelcome,
// making reconnect-replayed epochs idempotent; version 5 added the
// optional 24-byte span context on MsgContext, propagating the
// client's trace across the wire so server-side spans join the
// client's trace tree. Versions 2 (session handshake) and 3
// (crowdsourced surveys) are retired: their features are part of
// every supported version, and a hello below v4 is refused.
const (
	ProtocolV4 byte = 4
	ProtocolV5 byte = 5

	// ProtocolVersion is the newest version this build speaks.
	ProtocolVersion = ProtocolV5
)

// Negotiate picks the protocol version a session runs at: the lower of
// the two ends' versions. A v5 client talking to a v4 server runs the
// session at v4 (and sends no trace bytes). A session that would run
// below v4 is refused with an error naming the unsupported version.
func Negotiate(a, b byte) (byte, error) {
	v := min(a, b)
	if v < ProtocolV4 {
		return 0, fmt.Errorf("unsupported protocol v%d (need v4+)", v)
	}
	return v, nil
}

// Survey map identifiers: which shared radio map a crowdsourced survey
// point belongs to.
const (
	MapWiFi     byte = 1
	MapCellular byte = 2
)

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("offload: protocol error")

// maxPayload bounds a frame payload; scans are small.
const maxPayload = 64 * 1024

// WriteFrame writes one frame: [type][uint16 length][payload].
func WriteFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("%w: payload %d exceeds max", ErrProtocol, len(payload))
	}
	hdr := [3]byte{byte(t)}
	binary.BigEndian.PutUint16(hdr[1:], uint16(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, err
		}
	}
	return 3 + len(payload), nil
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint16(hdr[1:])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[0]), payload, nil
}

// EncodeStep packs a step event into the paper's 4-byte intermediate
// result: moving direction (heading, 0.1 milliradian resolution) and
// distance (centimeters) since the last update.
func EncodeStep(e *imu.StepEvent) []byte {
	out := make([]byte, 4)
	h := int16(math.Round(e.HeadingR * 1e4))
	binary.BigEndian.PutUint16(out[0:], uint16(h))
	cm := e.LengthM * 100
	if cm < 0 {
		cm = 0
	}
	if cm > 65535 {
		cm = 65535
	}
	binary.BigEndian.PutUint16(out[2:], uint16(math.Round(cm)))
	return out
}

// DecodeStep unpacks a 4-byte step update.
func DecodeStep(b []byte) (*imu.StepEvent, error) {
	if len(b) != 4 {
		return nil, fmt.Errorf("%w: step update must be 4 bytes, got %d", ErrProtocol, len(b))
	}
	h := int16(binary.BigEndian.Uint16(b[0:]))
	cm := binary.BigEndian.Uint16(b[2:])
	return &imu.StepEvent{
		HeadingR: float64(h) / 1e4,
		LengthM:  float64(cm) / 100,
		PeriodS:  sensing.EpochPeriod.Seconds(),
	}, nil
}

// EncodeVector packs an RSSI scan: [uint16 count] then per observation
// [uint8 idLen][id][int16 rssi×10].
func EncodeVector(v rf.Vector) []byte {
	out := make([]byte, 2, 2+len(v)*12)
	binary.BigEndian.PutUint16(out, uint16(len(v)))
	for _, o := range v {
		id := o.ID
		if len(id) > 255 {
			id = id[:255]
		}
		out = append(out, byte(len(id)))
		out = append(out, id...)
		var r [2]byte
		binary.BigEndian.PutUint16(r[:], uint16(int16(math.Round(o.RSSI*10))))
		out = append(out, r[:]...)
	}
	return out
}

// DecodeVector unpacks an RSSI scan.
func DecodeVector(b []byte) (rf.Vector, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short vector", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make(rf.Vector, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: truncated vector", ErrProtocol)
		}
		idLen := int(b[0])
		b = b[1:]
		if len(b) < idLen+2 {
			return nil, fmt.Errorf("%w: truncated vector entry", ErrProtocol)
		}
		id := string(b[:idLen])
		rssi := float64(int16(binary.BigEndian.Uint16(b[idLen:]))) / 10
		b = b[idLen+2:]
		out = append(out, rf.Obs{ID: id, RSSI: rssi})
	}
	return out, nil
}

// EncodeFix packs a GNSS fix: lat, lon (float64), numSats (uint8),
// HDOP (float32).
func EncodeFix(f *gnss.Fix) []byte {
	out := make([]byte, 8+8+1+4)
	binary.BigEndian.PutUint64(out[0:], math.Float64bits(f.Pos.Lat))
	binary.BigEndian.PutUint64(out[8:], math.Float64bits(f.Pos.Lon))
	out[16] = byte(f.NumSats)
	binary.BigEndian.PutUint32(out[17:], math.Float32bits(float32(f.HDOP)))
	return out
}

// DecodeFix unpacks a GNSS fix.
func DecodeFix(b []byte) (*gnss.Fix, error) {
	if len(b) != 21 {
		return nil, fmt.Errorf("%w: fix must be 21 bytes, got %d", ErrProtocol, len(b))
	}
	f := &gnss.Fix{NumSats: int(b[16])}
	f.Pos.Lat = math.Float64frombits(binary.BigEndian.Uint64(b[0:]))
	f.Pos.Lon = math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
	f.HDOP = float64(math.Float32frombits(binary.BigEndian.Uint32(b[17:])))
	return f, nil
}

// contextBytes is the size of the epoch header without a span context.
const contextBytes = 4 + 4 + 4 + 1 + 4

// EncodeContext packs the epoch header: epoch (uint32), light lux
// (float32), magnetic variance (float32), gpsEnabled flag, then the
// per-session epoch sequence number (uint32), followed by the 24-byte
// span context of the client's in-flight epoch span when tctx is
// valid. The sequence number identifies this epoch across reconnects
// so a result computed but lost in flight is re-answered, never
// re-stepped; seq 0 (byte-count models) never matches the server's
// replay cache. The frame length tells decoders whether a span context
// follows.
func EncodeContext(s *sensing.Snapshot, seq uint32, tctx trace.SpanContext) []byte {
	out := make([]byte, contextBytes)
	binary.BigEndian.PutUint32(out[0:], uint32(s.Epoch))
	binary.BigEndian.PutUint32(out[4:], math.Float32bits(float32(s.LightLux)))
	binary.BigEndian.PutUint32(out[8:], math.Float32bits(float32(s.MagVarUT)))
	if s.GPSEnabled {
		out[12] = 1
	}
	binary.BigEndian.PutUint32(out[13:], seq)
	if tctx.Valid() {
		out = trace.AppendContext(out, tctx)
	}
	return out
}

// DecodeContext unpacks a 17-byte epoch header, or a 41-byte one
// carrying a span context, into a fresh snapshot, its sequence number
// and the span context (zero without one, or for an all-zero one).
func DecodeContext(b []byte) (*sensing.Snapshot, uint32, trace.SpanContext, error) {
	var tctx trace.SpanContext
	if len(b) != contextBytes && len(b) != contextBytes+trace.ContextBytes {
		return nil, 0, tctx, fmt.Errorf("%w: context must be %d or %d bytes, got %d",
			ErrProtocol, contextBytes, contextBytes+trace.ContextBytes, len(b))
	}
	s := &sensing.Snapshot{
		Epoch:    int(binary.BigEndian.Uint32(b[0:])),
		LightLux: float64(math.Float32frombits(binary.BigEndian.Uint32(b[4:]))),
		MagVarUT: float64(math.Float32frombits(binary.BigEndian.Uint32(b[8:]))),
	}
	s.GPSEnabled = b[12] == 1
	s.T = time.Duration(s.Epoch) * sensing.EpochPeriod
	seq := binary.BigEndian.Uint32(b[13:])
	if len(b) > contextBytes {
		tctx, _ = trace.DecodeContext(b[contextBytes:])
	}
	return s, seq, tctx, nil
}

// EncodeLandmark packs a landmark hit: [uint8 idLen][id][float32 x]
// [float32 y][uint8 kindLen][kind].
func EncodeLandmark(l *sensing.LandmarkHit) []byte {
	out := make([]byte, 0, 1+len(l.ID)+8+1+len(l.Kind))
	out = append(out, byte(len(l.ID)))
	out = append(out, l.ID...)
	var f [4]byte
	binary.BigEndian.PutUint32(f[:], math.Float32bits(float32(l.Pos.X)))
	out = append(out, f[:]...)
	binary.BigEndian.PutUint32(f[:], math.Float32bits(float32(l.Pos.Y)))
	out = append(out, f[:]...)
	out = append(out, byte(len(l.Kind)))
	out = append(out, l.Kind...)
	return out
}

// DecodeLandmark unpacks a landmark hit.
func DecodeLandmark(b []byte) (*sensing.LandmarkHit, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: short landmark", ErrProtocol)
	}
	idLen := int(b[0])
	b = b[1:]
	if len(b) < idLen+8+1 {
		return nil, fmt.Errorf("%w: truncated landmark", ErrProtocol)
	}
	l := &sensing.LandmarkHit{ID: string(b[:idLen])}
	b = b[idLen:]
	l.Pos.X = float64(math.Float32frombits(binary.BigEndian.Uint32(b[0:])))
	l.Pos.Y = float64(math.Float32frombits(binary.BigEndian.Uint32(b[4:])))
	kindLen := int(b[8])
	b = b[9:]
	if len(b) < kindLen {
		return nil, fmt.Errorf("%w: truncated landmark kind", ErrProtocol)
	}
	l.Kind = string(b[:kindLen])
	return l, nil
}

// Survey is a crowdsourced survey point: a full RSSI scan taken at
// a known position (e.g. beside a landmark), contributed to the
// server's shared radio map. Positions travel as float64 because they
// key exact-position refreshes in the map store.
type Survey struct {
	Map  byte // MapWiFi or MapCellular
	X, Y float64
	Vec  rf.Vector
}

// EncodeSurvey packs a survey frame: [map][float64 x][float64 y]
// [vector].
func EncodeSurvey(s *Survey) []byte {
	out := make([]byte, 17, 17+2+len(s.Vec)*12)
	out[0] = s.Map
	binary.BigEndian.PutUint64(out[1:], math.Float64bits(s.X))
	binary.BigEndian.PutUint64(out[9:], math.Float64bits(s.Y))
	return append(out, EncodeVector(s.Vec)...)
}

// DecodeSurvey unpacks a survey frame.
func DecodeSurvey(b []byte) (*Survey, error) {
	if len(b) < 17 {
		return nil, fmt.Errorf("%w: short survey", ErrProtocol)
	}
	s := &Survey{Map: b[0]}
	s.X = math.Float64frombits(binary.BigEndian.Uint64(b[1:]))
	s.Y = math.Float64frombits(binary.BigEndian.Uint64(b[9:]))
	vec, err := DecodeVector(b[17:])
	if err != nil {
		return nil, err
	}
	s.Vec = vec
	return s, nil
}

// Hello is the client's session handshake: the protocol version it
// speaks, the walk's starting position in the local map frame (the
// server resets the session's fresh framework there), and an optional
// client identifier surfaced in the server's per-session stats.
type Hello struct {
	Version  byte
	StartX   float64
	StartY   float64
	ClientID string
}

// EncodeHello packs a hello frame: [version][float32 startX]
// [float32 startY][uint8 idLen][clientID].
func EncodeHello(h *Hello) []byte {
	id := h.ClientID
	if len(id) > 255 {
		id = id[:255]
	}
	out := make([]byte, 0, 1+8+1+len(id))
	out = append(out, h.Version)
	var f [4]byte
	binary.BigEndian.PutUint32(f[:], math.Float32bits(float32(h.StartX)))
	out = append(out, f[:]...)
	binary.BigEndian.PutUint32(f[:], math.Float32bits(float32(h.StartY)))
	out = append(out, f[:]...)
	out = append(out, byte(len(id)))
	out = append(out, id...)
	return out
}

// DecodeHello unpacks a hello frame.
func DecodeHello(b []byte) (*Hello, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("%w: short hello", ErrProtocol)
	}
	h := &Hello{Version: b[0]}
	h.StartX = float64(math.Float32frombits(binary.BigEndian.Uint32(b[1:])))
	h.StartY = float64(math.Float32frombits(binary.BigEndian.Uint32(b[5:])))
	n := int(b[9])
	if len(b) < 10+n {
		return nil, fmt.Errorf("%w: truncated hello", ErrProtocol)
	}
	h.ClientID = string(b[10 : 10+n])
	return h, nil
}

// Welcome is the server's handshake reply. OK=false means the session
// was rejected (e.g. the server is at its session limit); Reason then
// explains why and the server closes the connection.
type Welcome struct {
	Version   byte
	OK        bool
	SessionID uint32
	Reason    string
	// Resumed (v4) reports that this handshake re-attached a detached
	// session: the server kept the walk's framework state, so the
	// client should re-send any epoch whose result it never received.
	Resumed bool
}

// EncodeWelcome packs a welcome frame: [version][ok][uint32 session]
// [uint8 reasonLen][reason][resumed]. The trailing resumed byte is new
// in v4; pre-v4 decoders ignore trailing bytes, so the frame stays
// backward compatible.
func EncodeWelcome(w *Welcome) []byte {
	reason := w.Reason
	if len(reason) > 255 {
		reason = reason[:255]
	}
	out := make([]byte, 0, 1+1+4+1+len(reason)+1)
	out = append(out, w.Version)
	if w.OK {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	var s [4]byte
	binary.BigEndian.PutUint32(s[:], w.SessionID)
	out = append(out, s[:]...)
	out = append(out, byte(len(reason)))
	out = append(out, reason...)
	if w.Resumed {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// DecodeWelcome unpacks a welcome frame (with or without the v4
// trailing resumed byte).
func DecodeWelcome(b []byte) (*Welcome, error) {
	if len(b) < 7 {
		return nil, fmt.Errorf("%w: short welcome", ErrProtocol)
	}
	w := &Welcome{Version: b[0], OK: b[1] == 1}
	w.SessionID = binary.BigEndian.Uint32(b[2:])
	n := int(b[6])
	if len(b) < 7+n {
		return nil, fmt.Errorf("%w: truncated welcome", ErrProtocol)
	}
	w.Reason = string(b[7 : 7+n])
	if len(b) > 7+n {
		w.Resumed = b[7+n] == 1
	}
	return w, nil
}

// Result is the server's reply for one epoch.
type Result struct {
	X, Y     float64 // fused position (UniLoc2)
	BestX    float64 // UniLoc1 position
	BestY    float64
	Selected string // UniLoc1's selected scheme name
	Env      byte   // 1 indoor, 2 outdoor
	OK       bool   // at least one scheme was available this epoch
}

// EncodeResult packs a result frame.
func EncodeResult(r *Result) []byte {
	out := make([]byte, 0, 16+2+len(r.Selected)+1)
	var f [4]byte
	for _, v := range []float64{r.X, r.Y, r.BestX, r.BestY} {
		binary.BigEndian.PutUint32(f[:], math.Float32bits(float32(v)))
		out = append(out, f[:]...)
	}
	out = append(out, r.Env)
	if r.OK {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, byte(len(r.Selected)))
	out = append(out, r.Selected...)
	return out
}

// DecodeResult unpacks a result frame.
func DecodeResult(b []byte) (*Result, error) {
	if len(b) < 19 {
		return nil, fmt.Errorf("%w: short result", ErrProtocol)
	}
	r := &Result{}
	vals := make([]float64, 4)
	for i := range vals {
		vals[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(b[i*4:])))
	}
	r.X, r.Y, r.BestX, r.BestY = vals[0], vals[1], vals[2], vals[3]
	r.Env = b[16]
	r.OK = b[17] == 1
	n := int(b[18])
	if len(b) < 19+n {
		return nil, fmt.Errorf("%w: truncated result", ErrProtocol)
	}
	r.Selected = string(b[19 : 19+n])
	return r, nil
}
