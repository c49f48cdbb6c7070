package smartsockets

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jungle/internal/vnet"
)

// Goodput probing, after the netio benchmark the paper's deployment notes
// rely on: the client streams sized payloads to a responder, the responder
// acknowledges each with a digest, and the client derives the achievable
// bandwidth from the timing difference of two differently sized payloads —
// cancelling path latency and per-hop processing, which are identical for
// both. Probe traffic rides ordinary virtual connections, so it consumes
// modeled bandwidth and shows up in the traffic recorder under class
// "probe".

// probeFrameTag is the first byte of every probe frame.
const probeFrameTag byte = 0x42 // 'B'

const (
	probeData byte = 0x01 // client -> responder: digest + sized payload
	probeAck  byte = 0x02 // responder -> client: digest echo
)

// Probe payload sizes. The measurement uses the wire-byte difference of the
// two, so absolute sizes only set the virtual cost of a probe.
const (
	probeSmall = 4 << 10
	probeLarge = 64 << 10
)

// ErrProbeFailed reports an unusable probe exchange (bad frame, digest
// mismatch, or non-positive timing delta).
var ErrProbeFailed = errors.New("smartsockets: goodput probe failed")

// fnv1a64 is the digest used to verify probe payload integrity.
func fnv1a64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, x := range b {
		h ^= uint64(x)
		h *= prime
	}
	return h
}

// probePayload fills a deterministic pseudo-random payload of n bytes
// (xorshift64), so digests are stable across runs.
func probePayload(n int) []byte {
	b := make([]byte, n)
	s := uint64(0x9E3779B97F4A7C15)
	for i := 0; i+8 <= n; i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(b[i:], s)
	}
	return b
}

// appendProbeData builds a probe data frame: tag, kind, digest, length,
// payload.
func appendProbeData(payload []byte) []byte {
	b := make([]byte, 0, 14+len(payload))
	b = append(b, probeFrameTag, probeData)
	b = binary.BigEndian.AppendUint64(b, fnv1a64(payload))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

func appendProbeAck(digest uint64) []byte {
	b := make([]byte, 0, 10)
	b = append(b, probeFrameTag, probeAck)
	return binary.BigEndian.AppendUint64(b, digest)
}

// parseProbeData validates a probe data frame and returns its digest.
func parseProbeData(b []byte) (uint64, error) {
	if len(b) < 14 || b[0] != probeFrameTag || b[1] != probeData {
		return 0, fmt.Errorf("%w: bad data frame", ErrProbeFailed)
	}
	digest := binary.BigEndian.Uint64(b[2:])
	n := binary.BigEndian.Uint32(b[10:])
	if len(b) != 14+int(n) {
		return 0, fmt.Errorf("%w: truncated data frame", ErrProbeFailed)
	}
	if fnv1a64(b[14:]) != digest {
		return 0, fmt.Errorf("%w: payload digest mismatch", ErrProbeFailed)
	}
	return digest, nil
}

// ServeGoodput runs a goodput responder on a listener, serving the probe
// protocol on every connection it accepts until the listener closes. The
// calibration pass stands one up per probed host.
func (f *Factory) ServeGoodput(l *Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go serveProbeConn(conn)
	}
}

// serveProbeConn is the responder side of the probe protocol: it
// acknowledges each verified payload at its virtual arrival time, and
// closes the connection when the client does or a frame fails verification
// (one that is not a probe frame does).
func serveProbeConn(conn *VirtualConn) {
	defer conn.Close()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		digest, err := parseProbeData(msg.Data)
		if err != nil {
			return
		}
		if err := conn.Send(appendProbeAck(digest), msg.Arrival); err != nil {
			return
		}
	}
}

// Goodput measures the goodput (bytes/second) from this factory's host to
// the peer's probe responder at target: one two-payload exchange over the
// overlay, costing virtual time and modeled bandwidth; doneAt reports its
// virtual completion (sentAt on failure). A successful measurement is
// reported to the network's goodput recorder for the per-link health view.
func (f *Factory) Goodput(target Address, sentAt time.Duration) (bw float64, doneAt time.Duration, err error) {
	conn, err := f.Connect(target, sentAt)
	if err != nil {
		return 0, sentAt, err
	}
	defer conn.Close()
	conn.SetClass("probe")

	small, large := appendProbeData(probePayload(probeSmall)), appendProbeData(probePayload(probeLarge))
	extra := len(large) - len(small)
	t0 := conn.EstablishedAt()
	t1, err := f.probeRound(conn, small, t0)
	if err != nil {
		return 0, sentAt, err
	}
	t2, err := f.probeRound(conn, large, t1)
	if err != nil {
		return 0, sentAt, err
	}
	// Both rounds pay the same latency, per-hop processing and ack cost;
	// the timing difference is pure serialization of the extra bytes. Over a
	// multi-hop path that is the sum of per-link serialization times, so the
	// per-byte cost composes harmonically across the crossed links.
	delta := (t2 - t1) - (t1 - t0)
	if delta <= 0 {
		return 0, sentAt, fmt.Errorf("%w: non-positive timing delta", ErrProbeFailed)
	}
	perByte := delta.Seconds() / float64(extra)
	// A routed circuit whose endpoint is colocated with its hub attaches
	// over a loopback leg; its store-and-forward cost is modeled IPC, not
	// network. Discount the legs the factory can identify from the route, so
	// the reported goodput is the network path's.
	if conn.Type() == Routed {
		if route := conn.Route(); len(route) > 0 {
			loop := 0.0
			if f.host == route[0] {
				loop++
			}
			if target.Host == route[len(route)-1] {
				loop++
			}
			if corrected := perByte - loop/vnet.LoopbackBandwidth; corrected > 0 {
				perByte = corrected
			}
		}
	}
	bw = 1 / perByte
	f.net.RecordGoodput(f.host, target.Host, bw, t2)
	return bw, t2, nil
}

// probeRound sends one data frame at the given virtual time and returns the
// virtual arrival of its verified ack.
func (f *Factory) probeRound(conn *VirtualConn, data []byte, at time.Duration) (time.Duration, error) {
	digest := binary.BigEndian.Uint64(data[2:]) // read before Send takes data
	if err := conn.Send(data, at); err != nil {
		return 0, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, err
	}
	if len(msg.Data) != 10 || msg.Data[0] != probeFrameTag || msg.Data[1] != probeAck ||
		binary.BigEndian.Uint64(msg.Data[2:]) != digest {
		return 0, fmt.Errorf("%w: bad ack", ErrProbeFailed)
	}
	return msg.Arrival, nil
}
