package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic is the brick-flight/v1 artifact preamble. The version is part of
// the magic so a reader rejects any other layout before parsing a byte.
const Magic = "brick-flight/v1\n"

// recSize is the fixed on-the-wire size of one Event record:
// three int64s, four int32s, one kind byte.
const recSize = 3*8 + 4*4 + 1

// Pending-operation kinds: the StallReport's classification of an
// operation still pending at a stall. internal/mpi emits them and
// causal.go walks them, so both sides use these names. A started
// persistent endpoint is listed exactly while its own Wait would block:
// until every span of its cycle has landed (receive) or been sent (send:
// delivered on chan, staged on shmem, written on tcp).
const (
	PendRecvPosted     = "recv-posted"     // a posted Irecv no send has matched
	PendSendUnmatched  = "send-unmatched"  // an Isend no posted receive has matched
	PendPsendUnpaired  = "psend-unpaired"  // a SendInit no RecvInit has matched
	PendPrecvUnpaired  = "precv-unpaired"  // a RecvInit no SendInit has matched
	PendPsendActive    = "psend-active"    // a started persistent send whose Wait would block
	PendPrecvActive    = "precv-active"    // a started persistent receive whose Wait would block
	PendRecoveryParked = "recovery-parked" // a rank parked at the recovery barrier
)

// PendingRef names one operation that was still pending when the snapshot
// was taken — the StallReport's pending ops, mirrored here so the artifact
// is self-contained and the flight package stays independent of
// internal/mpi. Kind is one of the Pend* kinds.
type PendingRef struct {
	Kind string `json:"kind"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Tag  int    `json:"tag"`
}

func (p PendingRef) String() string {
	return fmt.Sprintf("%s src=%d dst=%d tag=%d", p.Kind, p.Src, p.Dst, p.Tag)
}

// RankLog is one rank's captured ring.
type RankLog struct {
	Rank    int
	Total   uint64 // events ever recorded
	Dropped uint64 // events lost to wraparound
	Events  []Event
}

// Snapshot is a whole-world flight capture, the in-memory form of a
// brick-flight/v1 artifact.
type Snapshot struct {
	// Reason is the trigger: "stall", "abort", or "recovery-budget" — or
	// "complete" for the rings of a run that finished.
	Reason string
	// Detail carries the trigger's message (an AbortError / StallReport
	// rendering).
	Detail string
	// Transport names the mpi backend the world ran on ("chan", "shmem").
	// Empty in artifacts written before the field existed.
	Transport string
	// Depth is the per-rank ring capacity the recorder ran with.
	Depth int
	// Pending are the operations still outstanding at capture time.
	Pending []PendingRef
	// Ranks holds every rank's ring, ascending by rank.
	Ranks []RankLog
}

// codecHeader is the JSON block after the magic: all metadata plus the
// per-rank record counts, so the binary tail is self-describing.
type codecHeader struct {
	Reason    string       `json:"reason"`
	Detail    string       `json:"detail,omitempty"`
	Transport string       `json:"transport,omitempty"`
	Depth     int          `json:"depth"`
	Pending   []PendingRef `json:"pending,omitempty"`
	Ranks     []rankHeader `json:"ranks"`
}

type rankHeader struct {
	Rank    int    `json:"rank"`
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
	Count   int    `json:"count"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func putEvent(b []byte, e Event) {
	binary.LittleEndian.PutUint64(b[0:], uint64(e.Nanos))
	binary.LittleEndian.PutUint64(b[8:], e.Seq)
	binary.LittleEndian.PutUint64(b[16:], uint64(e.Bytes))
	binary.LittleEndian.PutUint32(b[24:], uint32(e.Step))
	binary.LittleEndian.PutUint32(b[28:], uint32(e.Peer))
	binary.LittleEndian.PutUint32(b[32:], uint32(e.Tag))
	binary.LittleEndian.PutUint32(b[36:], uint32(e.Part))
	b[40] = byte(e.Kind)
}

func getEvent(b []byte) Event {
	return Event{
		Nanos: int64(binary.LittleEndian.Uint64(b[0:])),
		Seq:   binary.LittleEndian.Uint64(b[8:]),
		Bytes: int64(binary.LittleEndian.Uint64(b[16:])),
		Step:  int32(binary.LittleEndian.Uint32(b[24:])),
		Peer:  int32(binary.LittleEndian.Uint32(b[28:])),
		Tag:   int32(binary.LittleEndian.Uint32(b[32:])),
		Part:  int32(binary.LittleEndian.Uint32(b[36:])),
		Kind:  Kind(b[40]),
	}
}

// EncodeTo writes the snapshot in brick-flight/v1 format:
//
//	magic "brick-flight/v1\n"
//	uint32 LE header length, JSON header (metadata + per-rank counts)
//	fixed 41-byte little-endian event records, ranks in header order
//	uint32 LE CRC-32C over every preceding byte
//
// The trailing CRC makes torn or bit-rotted artifacts detectable at read
// time instead of silently feeding garbage into the causal analysis.
func (s *Snapshot) EncodeTo(w io.Writer) error {
	h := codecHeader{Reason: s.Reason, Detail: s.Detail, Transport: s.Transport, Depth: s.Depth,
		Pending: s.Pending, Ranks: make([]rankHeader, len(s.Ranks))}
	for i, rl := range s.Ranks {
		h.Ranks[i] = rankHeader{Rank: rl.Rank, Total: rl.Total, Dropped: rl.Dropped, Count: len(rl.Events)}
	}
	hj, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("flight: encode header: %w", err)
	}
	crc := crc32.Checksum([]byte(Magic), crcTable)
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(hj)))
	crc = crc32.Update(crc, crcTable, lenb[:])
	crc = crc32.Update(crc, crcTable, hj)
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	if _, err := w.Write(hj); err != nil {
		return err
	}
	var rb [recSize]byte
	for _, rl := range s.Ranks {
		for _, e := range rl.Events {
			putEvent(rb[:], e)
			crc = crc32.Update(crc, crcTable, rb[:])
			if _, err := w.Write(rb[:]); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(lenb[:], crc)
	_, err = w.Write(lenb[:])
	return err
}

// Encode returns the snapshot in brick-flight/v1 format.
func (s *Snapshot) Encode() []byte {
	var buf bytes.Buffer
	if err := s.EncodeTo(&buf); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// Decode parses a brick-flight/v1 artifact, rejecting wrong magic,
// truncation, trailing garbage, and CRC mismatches.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+8 {
		return nil, fmt.Errorf("flight: artifact truncated (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("flight: bad magic (want %q)", Magic)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("flight: CRC mismatch (corrupt or torn artifact)")
	}
	rest := body[len(Magic):]
	hlen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if hlen > len(rest) {
		return nil, fmt.Errorf("flight: truncated header (%d of %d bytes)", len(rest), hlen)
	}
	var h codecHeader
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("flight: decode header: %w", err)
	}
	rest = rest[hlen:]
	s := &Snapshot{Reason: h.Reason, Detail: h.Detail, Transport: h.Transport, Depth: h.Depth,
		Pending: h.Pending, Ranks: make([]RankLog, len(h.Ranks))}
	for i, rh := range h.Ranks {
		if rh.Count < 0 || rh.Count > len(rest)/recSize {
			return nil, fmt.Errorf("flight: truncated payload for rank %d (%d of %d records)",
				rh.Rank, len(rest)/recSize, rh.Count)
		}
		rl := RankLog{Rank: rh.Rank, Total: rh.Total, Dropped: rh.Dropped,
			Events: make([]Event, rh.Count)}
		for j := range rl.Events {
			rl.Events[j] = getEvent(rest[j*recSize:])
		}
		rest = rest[rh.Count*recSize:]
		s.Ranks[i] = rl
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("flight: %d trailing bytes after payload", len(rest))
	}
	return s, nil
}

// WriteFile writes the artifact atomically-enough for forensics (tmp file
// then rename, so a crashed writer leaves no half artifact at the target).
func (s *Snapshot) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.EncodeTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile reads and decodes a brick-flight/v1 artifact.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
