// Package tcpconn is the dial/accept layer under the mpi tcp transport:
// length-prefixed CRC-checked frames over TCP, plus the connection-level
// robustness policy — dial and reconnect with exponential backoff, bounded
// deterministic jitter, and an attempt budget, and per-connection read and
// write deadlines. The package knows nothing about ranks or worlds; it
// moves opaque (kind, payload) frames and reports corruption loudly.
package tcpconn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"time"
)

// Frame layout on the wire (all little-endian):
//
//	magic   uint32  "brkt"
//	kind    uint8   frame kind (transport-defined)
//	_       [3]byte reserved, must be zero
//	length  uint32  payload bytes
//	crc     uint32  CRC-32C over kind + reserved + payload
//	payload [length]byte
//
// The CRC covers the kind byte and reserved bytes as well as the payload,
// so a frame whose header was damaged in flight cannot be dispatched as the
// wrong kind with a valid body.
const (
	frameMagic = 0x62726b74 // "brkt"
	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 16
	// MaxPayload bounds a frame's payload so a corrupted length word cannot
	// make a reader attempt a multi-gigabyte allocation.
	MaxPayload = 1 << 30
)

// ErrCorrupt reports a frame that failed its magic, reserved-byte, length,
// or CRC check. A stream that yields it is unrecoverable: framing is lost.
var ErrCorrupt = errors.New("tcpconn: corrupt frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// kindCRC[k] is the CRC of the header bytes the frame CRC covers ahead of
// the payload (kind k, three zero reserved bytes). Precomputed because a
// 4-byte slice handed to crc32 escapes: one allocation per frame.
var kindCRC = func() (t [256]uint32) {
	for k := range t {
		t[k] = crc32.Update(0, crcTable, []byte{byte(k), 0, 0, 0})
	}
	return t
}()

func frameCRC(kind byte, payload []byte) uint32 {
	return crc32.Update(kindCRC[kind], crcTable, payload)
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice; the allocation-free building block under WriteFrame.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, kind, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, frameCRC(kind, payload))
	return append(dst, payload...)
}

// WriteFrame writes one frame. A partial write surfaces as the underlying
// net error; the receiver sees it as truncation or corruption.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("tcpconn: frame payload of %d bytes exceeds the %d-byte cap", len(payload), MaxPayload)
	}
	buf := AppendFrame(make([]byte, 0, HeaderBytes+len(payload)), kind, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. Truncation mid-frame returns
// io.ErrUnexpectedEOF (io.EOF only on a clean boundary before any header
// byte); a bad magic, nonzero reserved byte, oversized length, or CRC
// mismatch returns an error wrapping ErrCorrupt.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	fr := FrameReader{R: r}
	return fr.Next()
}

// FrameReader reads the frames of one stream into a buffer it reuses, so
// once the buffer has grown to the largest frame, reading costs no
// allocation. The payload Next returns is valid until the next call.
type FrameReader struct {
	R   io.Reader
	buf []byte
}

// Next reads one frame, with ReadFrame's error contract.
func (fr *FrameReader) Next() (kind byte, payload []byte, err error) {
	if cap(fr.buf) < HeaderBytes {
		fr.buf = make([]byte, HeaderBytes)
	}
	hdr := fr.buf[:HeaderBytes]
	if _, err := io.ReadFull(fr.R, hdr); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	kind = hdr[4]
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[8:12])
	if length > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds the %d-byte cap", ErrCorrupt, length, MaxPayload)
	}
	want := binary.LittleEndian.Uint32(hdr[12:16])
	if n := HeaderBytes + int(length); cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[HeaderBytes : HeaderBytes+int(length)]
	if _, err := io.ReadFull(fr.R, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if got := frameCRC(kind, payload); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch on kind %d (payload damaged in flight)", ErrCorrupt, kind)
	}
	return kind, payload, nil
}

// DialPolicy is the retry/backoff/budget contract for dialing a peer and
// for reconnecting after a connection drops. Jitter is deterministic from
// Seed so faulted runs replay identically.
type DialPolicy struct {
	// Attempts is the budget: total dial attempts before giving up.
	Attempts int
	// Initial is the backoff slept after the first failed attempt; each
	// further failure doubles it, capped at Max.
	Initial time.Duration
	// Max caps the exponential backoff.
	Max time.Duration
	// Jitter is the fraction of each backoff randomized (0..1): the sleep
	// becomes d*(1-Jitter) + d*Jitter*u for a deterministic u in [0,1).
	Jitter float64
	// Seed drives the jitter PRNG.
	Seed int64
	// Timeout bounds each individual dial attempt.
	Timeout time.Duration
}

// DefaultDialPolicy is the transport's stock policy: 8 attempts starting at
// 5 ms and doubling to a 500 ms cap with 30% jitter — a respawning peer has
// several seconds to come back before the budget is spent.
func DefaultDialPolicy() DialPolicy {
	return DialPolicy{
		Attempts: 8,
		Initial:  5 * time.Millisecond,
		Max:      500 * time.Millisecond,
		Jitter:   0.3,
		Timeout:  5 * time.Second,
	}
}

// Backoff returns the sleep before attempt i+2 (i counts failed attempts,
// 0-based), without jitter: Initial<<i capped at Max.
func (p DialPolicy) Backoff(i int) time.Duration {
	d := p.Initial
	for ; i > 0 && d < p.Max; i-- {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	return d
}

// Dial connects to addr under the policy: up to Attempts tries, sleeping
// the jittered exponential backoff between failures. The returned error
// wraps the last dial failure and reports the spent budget.
func (p DialPolicy) Dial(addr string) (net.Conn, error) {
	attempts := p.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x7c3b9a51))
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := p.Backoff(i - 1)
			if p.Jitter > 0 {
				f := 1 - p.Jitter + p.Jitter*rng.Float64()
				d = time.Duration(float64(d) * f)
			}
			time.Sleep(d)
		}
		c, err := net.DialTimeout("tcp", addr, p.Timeout)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("tcpconn: dial %s: budget of %d attempts exhausted: %w", addr, attempts, lastErr)
}

// WithWriteDeadline runs one write under a deadline and clears it after,
// so a peer that stopped draining cannot block the writer forever.
func WithWriteDeadline(c net.Conn, d time.Duration, f func() error) error {
	if d > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer c.SetWriteDeadline(time.Time{}) //nolint:errcheck // best-effort clear
	}
	return f()
}
