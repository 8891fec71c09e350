package flnet

// Binary transport: requests and replies travel as the length-prefixed
// frames of internal/flnet/wire. A client opens every connection with a
// hello frame and waits for the hello-ack; the server answers anything that
// does not start with a well-formed hello by dropping the connection.
//
// Both ends decode into per-connection reusable buffers and hand the
// dispatch path zero-copy views where the host allows it; the only gob left
// on the wire is the telemetry trailer, which is off the hot path by
// construction.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"

	"ecofl/internal/flnet/wire"
)

// WireMode was the client's transport selector.
//
// Deprecated: binary framing is the only transport; ignored.
type WireMode int

// WireBinary is the zero WireMode.
//
// Deprecated: binary framing is the only transport; ignored.
const WireBinary WireMode = 0

// binClientWire frames requests and replies through reusable buffers: one
// flush per request, zero-copy raw payloads on little-endian hosts, and a
// reply decode that allocates only the weights slice whose ownership passes
// to the caller.
type binClientWire struct {
	bw      *bufio.Writer
	fw      wire.Writer
	fr      wire.Reader
	payload []byte       // quant/sparse payload encode scratch
	telBuf  bytes.Buffer // gob-encoded telemetry trailer scratch
}

func (b *binClientWire) writeRequest(req *request) error {
	h := wire.Header{
		A:   int32(req.ClientID),
		B:   int32(req.NumSamples),
		C:   int32(req.BaseVersion),
		Seq: req.Seq,
	}
	var trailer []byte
	if req.Telemetry != nil {
		b.telBuf.Reset()
		if err := gob.NewEncoder(&b.telBuf).Encode(req.Telemetry); err != nil {
			return err
		}
		trailer = b.telBuf.Bytes()
		h.Flags |= wire.FlagTelemetry
	}
	var err error
	switch req.Kind {
	case "pull":
		h.Kind = wire.KindPull
		err = b.fw.WriteFrame(&h, nil, trailer)
	case "telemetry":
		h.Kind = wire.KindTelemetry
		err = b.fw.WriteFrame(&h, nil, trailer)
	case "push":
		h.Kind = wire.KindPush
		switch {
		case req.Weights != nil:
			err = b.fw.WriteRawFrame(&h, req.Weights, trailer)
		case req.Quant != nil:
			h.Codec = wire.CodecQuant
			b.payload = wire.AppendQuant(b.payload[:0], req.Quant.Min, req.Quant.Scale, req.Quant.Data)
			err = b.fw.WriteFrame(&h, b.payload, trailer)
		case req.SparseIdx != nil || req.DenseLen > 0:
			h.Codec = wire.CodecSparse
			b.payload = wire.AppendSparse(b.payload[:0], req.DenseLen, req.SparseIdx, req.SparseVals)
			err = b.fw.WriteFrame(&h, b.payload, trailer)
		default:
			return errNoPayload
		}
	default:
		return fmt.Errorf("flnet: unknown request kind %q", req.Kind)
	}
	if err != nil {
		return err
	}
	return b.bw.Flush()
}

func (b *binClientWire) readReply(rep *reply) error {
	h, payload, trailer, err := b.fr.Next()
	if err != nil {
		return err
	}
	if h.Kind != wire.KindReply {
		return fmt.Errorf("%w: kind %d where a reply was expected", wire.ErrFrame, h.Kind)
	}
	*rep = reply{Version: int(h.A)}
	if len(trailer) > 0 {
		rep.Err = string(trailer)
	}
	if h.Codec == wire.CodecRaw {
		if rep.Weights, err = wire.ParseRaw(payload, nil); err != nil {
			return err
		}
	}
	return nil
}

// newBinClientWire performs the hello/hello-ack exchange on a fresh
// connection and returns its codec. Any failure is returned for the caller's
// retry loop; the connection is unusable afterwards.
func newBinClientWire(conn net.Conn, cc countingConn, id int, timeout time.Duration) (*binClientWire, error) {
	b := &binClientWire{
		bw: bufio.NewWriterSize(cc, 64<<10),
		fr: wire.Reader{R: bufio.NewReaderSize(cc, 64<<10)},
	}
	b.fw.W = b.bw
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	hello := wire.Header{Kind: wire.KindHello, A: int32(id)}
	if err := b.fw.WriteFrame(&hello, nil, nil); err != nil {
		return nil, err
	}
	if err := b.bw.Flush(); err != nil {
		return nil, err
	}
	h, _, _, err := b.fr.Next()
	if err != nil {
		return nil, err
	}
	if h.Kind != wire.KindHelloAck {
		return nil, fmt.Errorf("%w: kind %d where hello-ack was expected", wire.ErrFrame, h.Kind)
	}
	return b, nil
}

// requestDecoder turns request frames into requests through per-connection
// reusable buffers. The server's frame loop and FuzzRequestDecode share it,
// so the fuzzer drives exactly the decoding a portal's bytes meet.
type requestDecoder struct {
	quant      Quantized
	weightsBuf []float64 // raw-payload decode scratch (big-endian hosts)
	idxBuf     []uint32
	valBuf     []float64
}

// decode fills req from one frame. Raw weights alias the frame's payload
// buffer where the host allows it, so req is valid only until the next
// frame is read. A non-nil error is a protocol violation: the connection
// must be dropped.
func (d *requestDecoder) decode(h wire.Header, payload, trailer []byte, req *request) error {
	*req = request{
		ClientID:    int(h.A),
		Seq:         h.Seq,
		NumSamples:  int(h.B),
		BaseVersion: int(h.C),
	}
	var err error
	switch h.Kind {
	case wire.KindPull:
		req.Kind = "pull"
	case wire.KindTelemetry:
		req.Kind = "telemetry"
	case wire.KindPush:
		req.Kind = "push"
		switch h.Codec {
		case wire.CodecRaw:
			if v, ok := wire.RawView(payload); ok {
				req.Weights = v
			} else if d.weightsBuf, err = wire.ParseRaw(payload, d.weightsBuf); err == nil {
				req.Weights = d.weightsBuf
			}
		case wire.CodecQuant:
			var min, scale float64
			var data []byte
			if min, scale, data, err = wire.ParseQuant(payload); err == nil {
				d.quant = Quantized{Min: min, Scale: scale, Data: data}
				req.Quant = &d.quant
			}
		case wire.CodecSparse:
			if req.DenseLen, d.idxBuf, d.valBuf, err = wire.ParseSparse(payload, d.idxBuf, d.valBuf); err == nil {
				req.SparseIdx, req.SparseVals = d.idxBuf, d.valBuf
			}
		}
		if err != nil {
			return err
		}
	default:
		// Hello mid-stream, a reply, or a future kind.
		return fmt.Errorf("%w: kind %d where a request was expected", wire.ErrFrame, h.Kind)
	}
	if h.Flags&wire.FlagTelemetry != 0 && len(trailer) > 0 {
		var snap TelemetrySnapshot
		if err := gob.NewDecoder(bytes.NewReader(trailer)).Decode(&snap); err != nil {
			return err
		}
		req.Telemetry = &snap
	}
	return nil
}

// handle serves one portal connection: hello-ack first, then request/reply
// frames. Any framing violation — a first frame that is not a hello (a
// pre-binary portal's gob stream included), a bad payload, a stray kind —
// counts a decode error and drops the connection: the format has no resync
// point, and a reconnecting portal says hello again.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn) {
		return // server shutting down
	}
	defer s.untrackConn(conn)
	cc := countingConn{Conn: conn, in: srvBytesIn, out: srvBytesOut}
	fr := wire.Reader{R: bufio.NewReaderSize(cc, 64<<10)}
	bw := bufio.NewWriterSize(cc, 64<<10)
	fw := wire.Writer{W: bw}

	h, _, _, err := fr.Next()
	if err != nil || h.Kind != wire.KindHello {
		if err != io.EOF {
			srvDecodeErrors.Inc()
		}
		return
	}
	srvConnsBinary.Inc()
	conn.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	ack := wire.Header{Kind: wire.KindHelloAck}
	if fw.WriteFrame(&ack, nil, nil) != nil || bw.Flush() != nil {
		return
	}

	job := &ingestJob{done: make(chan *ingestJob, 1)}
	var (
		dec requestDecoder
		req request
	)
	for {
		h, payload, trailer, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				srvDecodeErrors.Inc()
			}
			return
		}
		t0 := time.Now()
		if dec.decode(h, payload, trailer, &req) != nil {
			srvDecodeErrors.Inc()
			return
		}
		rep := s.dispatch(&req, job)
		conn.SetWriteDeadline(time.Now().Add(DefaultTimeout))
		rh := wire.Header{Kind: wire.KindReply, A: int32(rep.Version)}
		var errTrailer []byte
		if rep.Err != "" {
			errTrailer = []byte(rep.Err)
		}
		if rep.Weights != nil {
			err = fw.WriteRawFrame(&rh, rep.Weights, errTrailer)
		} else {
			err = fw.WriteFrame(&rh, nil, errTrailer)
		}
		if err != nil || bw.Flush() != nil {
			return
		}
		srvRequestSeconds.Observe(time.Since(t0).Seconds())
	}
}
