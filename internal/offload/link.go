package offload

import "time"

// LinkModel models the phone↔server radio link for the response-time
// decomposition (Table V). Transfer time = base latency + payload ÷
// bandwidth. WiFi and cellular links differ mainly in latency.
type LinkModel struct {
	Name        string
	BaseLatency time.Duration // one-way latency
	Bandwidth   float64       // bytes per second
}

// WiFiLink returns a campus-WLAN-like link.
func WiFiLink() LinkModel {
	return LinkModel{Name: "wifi", BaseLatency: 18 * time.Millisecond, Bandwidth: 2.0e6}
}

// CellLink returns a cellular-data-like link (used where WiFi is not
// available; pervasively available per §IV-C).
func CellLink() LinkModel {
	return LinkModel{Name: "cellular", BaseLatency: 55 * time.Millisecond, Bandwidth: 0.6e6}
}

// TransferTime returns the modeled one-way transfer time for n bytes.
func (l LinkModel) TransferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return l.BaseLatency + time.Duration(float64(n)/l.Bandwidth*float64(time.Second))
}

// RoundTrip returns the modeled time to upload up bytes and receive
// down bytes (one request/response exchange of the offload protocol).
func (l LinkModel) RoundTrip(up, down int) time.Duration {
	return l.TransferTime(up) + l.TransferTime(down)
}

// HandshakeTime returns the modeled one-off cost of the session
// handshake (hello up, welcome down) for a client with the given ID. It is paid once per walk, not per epoch.
func HandshakeTime(l LinkModel, clientID string) time.Duration {
	const frame = 3 // [type][uint16 length]
	up := frame + len(EncodeHello(&Hello{Version: ProtocolVersion, ClientID: clientID}))
	down := frame + len(EncodeWelcome(&Welcome{Version: ProtocolVersion, OK: true}))
	return l.RoundTrip(up, down)
}
