// Package ckpt implements versioned per-rank checkpoints of stencil state
// for the recovery runtime: the brick-ckpt/v1 on-the-wire format (CRC-
// checked encode/decode of one rank's storage buffers plus replay
// metadata), and the on-disk epoch layout every checkpointing run commits
// to and restores from (see disk.go).
//
// A snapshot captures everything a rank needs to re-enter the step loop
// deterministically after a respawn: the raw float64 storage (for bricks,
// one buffer holding fields and ghosts; for grids, both double buffers),
// the double-buffer cursor, the absolute step to resume at, the plan
// digest (a restored rank must re-pair the identical persistent plan — a
// digest mismatch after respawn means the world rebuilt a different
// communication pattern and replay would silently diverge), and the
// degraded-exchange reason so a rank that had fallen back from mapped
// arenas to heap windows is restored into the same fallback.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// magic is the brick-ckpt/v1 format preamble. The version is part of the
// magic so a reader rejects any other layout before parsing a byte of it.
const magic = "brick-ckpt/v1\n"

// Snapshot is one rank's checkpoint at one epoch boundary.
type Snapshot struct {
	// Rank is the owning rank; Step the absolute step (warmup included) to
	// resume from; Cur the double-buffer cursor at that step.
	Rank int `json:"rank"`
	Step int `json:"step"`
	Cur  int `json:"cur"`
	// Degraded is the exchanger's PlanSummary.Degraded reason at snapshot
	// time ("" = fully mapped); restore must re-enter the same mode.
	Degraded string `json:"degraded,omitempty"`
	// Digest is the persistent exchange plan digest; replay asserts the
	// respawned plan matches it.
	Digest string `json:"digest,omitempty"`
	// Bufs holds the storage payloads. The slices must not alias live
	// simulation storage — the store keeps them across epochs while the
	// run mutates the originals, so callers snapshot copies.
	Bufs [][]float64 `json:"-"`
}

// header is the JSON block after the magic: all metadata plus the payload
// layout, so the binary tail is self-describing.
type header struct {
	Rank     int    `json:"rank"`
	Step     int    `json:"step"`
	Cur      int    `json:"cur"`
	Degraded string `json:"degraded,omitempty"`
	Digest   string `json:"digest,omitempty"`
	BufLens  []int  `json:"buf_lens"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Bytes is the encoded size of the snapshot: payload floats at 8 bytes
// each (the header's few hundred bytes are ignored — accounting, not
// billing).
func (s *Snapshot) Bytes() int64 {
	n := int64(0)
	for _, b := range s.Bufs {
		n += int64(8 * len(b))
	}
	return n
}

// EncodeTo writes the snapshot in brick-ckpt/v1 format:
//
//	magic "brick-ckpt/v1\n"
//	uint32 LE header length, JSON header (metadata + payload layout)
//	payload buffers, each float64 little-endian, in header order
//	uint32 LE CRC-32C over every preceding byte
//
// The trailing CRC makes torn or bit-rotted spill files detectable at
// restore time instead of silently replaying from garbage.
func (s *Snapshot) EncodeTo(w io.Writer) error {
	h := header{Rank: s.Rank, Step: s.Step, Cur: s.Cur, Degraded: s.Degraded, Digest: s.Digest,
		BufLens: make([]int, len(s.Bufs))}
	for i, b := range s.Bufs {
		h.BufLens[i] = len(b)
	}
	hj, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("ckpt: encode header: %w", err)
	}
	crc := crc32.Checksum([]byte(magic), crcTable)
	if _, err := io.WriteString(w, magic); err != nil {
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
	var fb [8]byte
	for _, buf := range s.Bufs {
		for _, v := range buf {
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v))
			crc = crc32.Update(crc, crcTable, fb[:])
			if _, err := w.Write(fb[:]); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(lenb[:], crc)
	_, err = w.Write(lenb[:])
	return err
}

// Encode renders the snapshot to a byte slice (EncodeTo into memory).
func (s *Snapshot) Encode() []byte {
	var b bytes.Buffer
	b.Grow(len(magic) + 256 + int(s.Bytes()) + 8)
	if err := s.EncodeTo(&b); err != nil {
		panic(fmt.Sprintf("ckpt: in-memory encode cannot fail: %v", err))
	}
	return b.Bytes()
}

// Decode parses a brick-ckpt/v1 blob, verifying magic and trailing CRC.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+8 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: not a brick-ckpt/v1 snapshot")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("ckpt: CRC mismatch (stored %08x, computed %08x): snapshot corrupted", want, got)
	}
	rest := body[len(magic):]
	if len(rest) < 4 {
		return nil, fmt.Errorf("ckpt: truncated header length")
	}
	hlen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if hlen > len(rest) {
		return nil, fmt.Errorf("ckpt: truncated header (%d > %d bytes)", hlen, len(rest))
	}
	var h header
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("ckpt: decode header: %w", err)
	}
	rest = rest[hlen:]
	s := &Snapshot{Rank: h.Rank, Step: h.Step, Cur: h.Cur, Degraded: h.Degraded, Digest: h.Digest,
		Bufs: make([][]float64, len(h.BufLens))}
	for i, n := range h.BufLens {
		if n < 0 || 8*n > len(rest) {
			return nil, fmt.Errorf("ckpt: payload %d truncated (%d floats, %d bytes left)", i, n, len(rest))
		}
		buf := make([]float64, n)
		for j := range buf {
			buf[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*j:]))
		}
		s.Bufs[i] = buf
		rest = rest[8*n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after payload", len(rest))
	}
	return s, nil
}
