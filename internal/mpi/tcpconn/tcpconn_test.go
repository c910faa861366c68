package tcpconn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// TestFrameRoundTrip: every payload size in a small sweep survives
// encode/decode bit-for-bit, including the empty frame.
func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 64, 4096} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 42, payload); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		kind, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d bytes: %v", n, err)
		}
		if kind != 42 || !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch at %d bytes: kind=%d", n, kind)
		}
	}
}

// TestHeaderOverSplitPayload: a frame whose payload lies in several
// buffers — its header from AppendHeader with the CRC folded over each
// part — is byte for byte the frame AppendFrame builds from the joined
// payload, for every split point.
func TestHeaderOverSplitPayload(t *testing.T) {
	payload := []byte("a payload written from three buffers")
	want := AppendFrame(nil, 25, payload)
	for i := 0; i <= len(payload); i++ {
		for j := i; j <= len(payload); j++ {
			crc := StartCRC(25)
			for _, part := range [][]byte{payload[:i], payload[i:j], payload[j:]} {
				crc = UpdateCRC(crc, part)
			}
			got := append(AppendHeader(nil, 25, len(payload), crc), payload...)
			if !bytes.Equal(got, want) {
				t.Fatalf("split at %d,%d: %x, want %x", i, j, got, want)
			}
		}
	}
}

// TestFrameEveryPrefixTruncation: every strict prefix of an encoded frame
// must fail to decode — as clean EOF only at offset zero, as unexpected EOF
// everywhere else. Mirrors the flight/ckpt codec truncation suites.
func TestFrameEveryPrefixTruncation(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	full := AppendFrame(nil, 7, payload)
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", cut, len(full))
		}
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: got %v, want io.EOF", err)
			}
			continue
		}
		if err == io.EOF {
			t.Fatalf("prefix of %d/%d bytes returned clean EOF", cut, len(full))
		}
	}
}

// TestFrameEveryByteCorruption: flipping any single byte of an encoded
// frame must be rejected — never silently yield a frame with different
// contents. Payload corruption trips the CRC; header corruption trips
// magic/reserved/length/CRC checks.
func TestFrameEveryByteCorruption(t *testing.T) {
	payload := []byte("0123456789abcdefghijklmnopqrstuv")
	full := AppendFrame(nil, 9, payload)
	for off := 0; off < len(full); off++ {
		for _, mask := range []byte{0x01, 0x80} {
			dam := append([]byte(nil), full...)
			dam[off] ^= mask
			kind, got, err := ReadFrame(bytes.NewReader(dam))
			if err == nil && kind == 9 && bytes.Equal(got, payload) {
				t.Fatalf("flip of byte %d mask %#x went undetected", off, mask)
			}
			// A corrupted length word may legitimately read as truncation
			// (longer length than stream); everything else must be ErrCorrupt
			// or an EOF-flavored error — never a clean decode of wrong bytes.
			if err == nil {
				t.Fatalf("flip of byte %d mask %#x decoded (kind=%d)", off, mask, kind)
			}
		}
	}
}

// TestFrameOversizedLengthRejected: a length word past MaxPayload is
// corruption, not an allocation request.
func TestFrameOversizedLengthRejected(t *testing.T) {
	full := AppendFrame(nil, 1, []byte("x"))
	full[8], full[9], full[10], full[11] = 0xff, 0xff, 0xff, 0x7f
	_, _, err := ReadFrame(bytes.NewReader(full))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: got %v, want ErrCorrupt", err)
	}
}

// TestBackoffSchedule: the exponential schedule starts at Initial, doubles,
// and caps at Max.
func TestBackoffSchedule(t *testing.T) {
	p := DialPolicy{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

// TestDialBudgetExhaustion: dialing a dead address burns exactly the
// attempt budget and reports it.
func TestDialBudgetExhaustion(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := DialPolicy{Attempts: 3, Initial: time.Millisecond, Max: 2 * time.Millisecond, Timeout: 100 * time.Millisecond}
	start := time.Now()
	if _, err := p.Dial(addr); err == nil {
		t.Fatal("dial of a closed port succeeded")
	} else if !bytes.Contains([]byte(err.Error()), []byte("budget of 3 attempts exhausted")) {
		t.Fatalf("error does not report the spent budget: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("budget exhaustion took implausibly long")
	}
}

// TestDialSucceedsAfterRetry: the first attempts fail (port closed), then a
// listener appears and a later attempt under the same budget connects.
func TestDialSucceedsAfterRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err == nil {
			c.Close()
		}
	}()
	p := DialPolicy{Attempts: 20, Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.3, Timeout: time.Second}
	c, err := p.Dial(addr)
	if err != nil {
		t.Fatalf("dial under budget after listener appeared: %v", err)
	}
	c.Close()
}

// allocBytes reports the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameHugeClaimTruncated: a bare header claiming MaxPayload is a
// truncation, and reading it allocates a bounded buffer, not the claim.
func TestReadFrameHugeClaimTruncated(t *testing.T) {
	hdr := AppendFrame(nil, 3, nil)
	binary.LittleEndian.PutUint32(hdr[8:12], MaxPayload)
	var err error
	got := allocBytes(func() { _, _, err = ReadFrame(bytes.NewReader(hdr)) })
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header-only frame claiming %d bytes: got %v, want io.ErrUnexpectedEOF", MaxPayload, err)
	}
	if limit := uint64(4 << 20); got > limit {
		t.Errorf("reading it allocated %d bytes, want at most %d", got, limit)
	}
}

// TestFrameReaderSteadyStateAllocs: once its buffer has grown to the
// largest frame, a FrameReader reads frames without allocating, including
// frames larger than readAhead.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	var stream []byte
	for _, n := range []int{3 * readAhead, 80, readAhead + 5, 0} {
		stream = AppendFrame(stream, 5, bytes.Repeat([]byte{byte(n)}, n))
	}
	rd := bytes.NewReader(stream)
	fr := FrameReader{R: rd}
	read := func() {
		rd.Reset(stream)
		for i := 0; i < 4; i++ {
			if _, _, err := fr.Next(); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Errorf("steady-state frame reads allocate %v objects per stream, want 0", allocs)
	}
}

// FuzzReadFrame holds the frame reader to three properties on any input:
// it never panics; a frame it accepts re-encodes through AppendFrame to
// exactly the bytes it consumed; and it allocates in proportion to the
// input it was given (at most readAhead beyond a small multiple of it),
// never in proportion to a length word the input does not back.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 7, []byte("payload")))
	f.Add(AppendFrame(nil, 0, nil))
	huge := AppendFrame(nil, 3, []byte{1, 2, 3})
	binary.LittleEndian.PutUint32(huge[8:12], MaxPayload)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		var kind byte
		var payload []byte
		var err error
		got := allocBytes(func() { kind, payload, err = ReadFrame(bytes.NewReader(b)) })
		if limit := uint64(4*len(b) + 4*readAhead); got > limit {
			t.Fatalf("reading %d input bytes allocated %d, want at most %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if enc := AppendFrame(nil, kind, payload); !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", enc, b[:len(enc)])
		}
	})
}

// testFrame is one decoded frame, its payload copied out of the reader's
// buffer.
type testFrame struct {
	kind    byte
	payload []byte
}

// testStream encodes frames of the given payload sizes, each filled with a
// pattern of its index, and returns the stream with the frames.
func testStream(sizes ...int) ([]byte, []testFrame) {
	var stream []byte
	var frames []testFrame
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*131 + j*7)
		}
		stream = AppendFrame(stream, byte(i%200), p)
		frames = append(frames, testFrame{byte(i % 200), p})
	}
	return stream, frames
}

// readAll reads frames through one FrameReader until it errors.
func readAll(r io.Reader) ([]testFrame, error) {
	fr := FrameReader{R: r}
	var out []testFrame
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return out, err
		}
		out = append(out, testFrame{kind, append([]byte{}, payload...)})
	}
}

func sameFrames(t *testing.T, how string, got, want []testFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", how, len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: frame %d differs (kind %d, %d bytes; want kind %d, %d bytes)",
				how, i, got[i].kind, len(got[i].payload), want[i].kind, len(want[i].payload))
		}
	}
}

// TestFrameReaderReadSizes: the same stream decodes to the same frames
// whether each Read returns one byte, half of what was asked, or as many
// frames as the buffer holds.
func TestFrameReaderReadSizes(t *testing.T) {
	stream, want := testStream(0, 1, 80, 4096, 15, 70000, 3, 0, 300000, 12)
	for _, c := range []struct {
		name string
		r    func() io.Reader
	}{
		{"one-byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }},
		{"half", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }},
		{"bulk", func() io.Reader { return bytes.NewReader(stream) }},
	} {
		got, err := readAll(c.r())
		if err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want io.EOF", c.name, err)
		}
		sameFrames(t, c.name, got, want)
	}
}

// cutReader records the stream offset at which each Read ended.
type cutReader struct {
	r    io.Reader
	off  int
	cuts []int
}

func (c *cutReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += n
	c.cuts = append(c.cuts, c.off)
	return n, err
}

// TestFrameReaderStraddle: a stream longer than the reader's buffer puts
// frames across the end of a read; each moves to the front of the buffer,
// the next read completes it, and every frame decodes intact. A read lands
// many frames: the stream takes fewer reads than it has frames.
func TestFrameReaderStraddle(t *testing.T) {
	sizes := []int{60000}
	for i := 0; i < 150; i++ {
		sizes = append(sizes, 1000+37*i)
	}
	stream, want := testStream(sizes...)
	if len(stream) < 2*bulkAhead {
		t.Fatalf("stream of %d bytes does not outgrow the buffer", len(stream))
	}
	cr := &cutReader{r: bytes.NewReader(stream)}
	got, err := readAll(cr)
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	sameFrames(t, "straddle", got, want)
	bounds := map[int]bool{}
	for off, i := 0, 0; i < len(want); i++ {
		off += HeaderBytes + len(want[i].payload)
		bounds[off] = true
	}
	straddled := 0
	for _, c := range cr.cuts {
		if c > 0 && c < len(stream) && !bounds[c] {
			straddled++
		}
	}
	if straddled == 0 {
		t.Fatalf("no read ended inside a frame (reads ended at %v)", cr.cuts)
	}
	if len(cr.cuts) >= len(want) {
		t.Errorf("%d reads for %d frames: the reader does not read ahead", len(cr.cuts), len(want))
	}
	t.Logf("%d frames in %d reads", len(want), len(cr.cuts))
}

// errAfterReader returns all its bytes in one Read, together with err.
type errAfterReader struct {
	b   []byte
	err error
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	if len(e.b) == 0 {
		return 0, e.err
	}
	n := copy(p, e.b)
	e.b = e.b[n:]
	if len(e.b) == 0 {
		return n, e.err
	}
	return n, nil
}

// TestFrameReaderDataWithError: when a Read returns bytes together with an
// error, every whole frame in those bytes comes out before the error does —
// io.EOF on a frame boundary, io.ErrUnexpectedEOF inside a frame, any other
// error as it was returned — both through iotest.DataErrReader and a
// reader that returns everything in one Read.
func TestFrameReaderDataWithError(t *testing.T) {
	stream, want := testStream(5, 0, 700, 64)
	lost := errors.New("connection reset")
	for _, c := range []struct {
		name string
		r    io.Reader
		n    int // whole frames before the error
		err  error
	}{
		{"eof-at-boundary", iotest.DataErrReader(bytes.NewReader(stream)), 4, io.EOF},
		{"eof-mid-frame", iotest.DataErrReader(bytes.NewReader(stream[:len(stream)-10])), 3, io.ErrUnexpectedEOF},
		{"eof-mid-header", iotest.DataErrReader(bytes.NewReader(stream[:len(stream)-64-5])), 3, io.ErrUnexpectedEOF},
		{"one-read-eof", &errAfterReader{stream, io.EOF}, 4, io.EOF},
		{"one-read-error", &errAfterReader{stream[:len(stream)-1], lost}, 3, lost},
	} {
		got, err := readAll(c.r)
		if err != c.err {
			t.Fatalf("%s: ended with %v, want %v", c.name, err, c.err)
		}
		sameFrames(t, c.name, got, want[:c.n])
	}
}

// TestReadFrameConsumesOneFrame: ReadFrame reads no byte past its frame, so
// a second ReadFrame on the same stream reads the next frame, and a
// FrameReader after them the rest.
func TestReadFrameConsumesOneFrame(t *testing.T) {
	stream, want := testStream(10, 2000, 0, 33)
	rd := bytes.NewReader(stream)
	for i := 0; i < 2; i++ {
		kind, payload, err := ReadFrame(rd)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		sameFrames(t, "ReadFrame", []testFrame{{kind, payload}}, want[i:i+1])
	}
	got, err := readAll(rd)
	if err != io.EOF {
		t.Fatalf("rest of the stream ended with %v, want io.EOF", err)
	}
	sameFrames(t, "rest", got, want[2:])
}
