package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/bricklab/brick/internal/fault"
)

// Receive-side CRC verification (opt-in via World.SetVerifyCRC): every
// delivery — one-shot and persistent — checksums the sender's payload and
// the receiver's buffer after the copy and aborts the world with a
// *CorruptionError on mismatch. In-process the copy itself cannot corrupt,
// so what this detects is injected wire corruption (the fault injector's
// corrupt clauses flip bytes in the receive buffer between copy and
// verify), standing in for the link-level corruption a real transport
// checks with CRCs. Detection converts silent wrong data into the same
// loud AbortError path a crash takes, which is what lets checkpoint
// recovery replay past it.

// CorruptionError reports a receive-side CRC mismatch: the payload that
// arrived at (Dst) from (Src) with Tag differs from what the sender posted.
// It is carried as the Value of the *AbortError that kills the world.
type CorruptionError struct {
	Src, Dst, Tag int
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("mpi: receive-side CRC mismatch on message src=%d dst=%d tag=%d (payload corrupted in flight)",
		e.Src, e.Dst, e.Tag)
}

// SetVerifyCRC enables receive-side payload verification: each delivery
// compares a CRC of the sender's buffer against a CRC of the receive buffer
// after the copy and aborts the world with a *CorruptionError on mismatch.
// Call before Run. Disabled (the default) the delivery path pays one bool
// check; enabled it pays two CRC passes over each payload.
func (w *World) SetVerifyCRC(on bool) { w.verifyCRC = on }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcFloats checksums a payload over its little-endian float64 bytes: on
// a little-endian host in one pass over the payload's own bytes, viewed in
// place as the tcp sender writes them.
func crcFloats(data []float64) uint32 {
	if littleEndian {
		wire, _ := wireBytes(data, nil)
		return crc32.Update(0, crcTable, wire)
	}
	return crcWords(data)
}

// crcWords is crcFloats a word at a time, encoding each to little-endian
// bytes first: the path of a big-endian host, and the tests' oracle.
func crcWords(data []float64) uint32 {
	var b [8]byte
	crc := uint32(0)
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		crc = crc32.Update(crc, crcTable, b[:])
	}
	return crc
}

// applyFlips XORs the injected byte flips that fall in buf (flip offsets
// are bytes into the whole payload), simulating corruption between the
// sender's memory and the receiver's.
func applyFlips(buf []float64, flips []fault.ByteFlip) {
	for _, fl := range flips {
		i := fl.Off / 8
		if i < 0 || i >= len(buf) {
			continue
		}
		bits := math.Float64bits(buf[i])
		bits ^= uint64(fl.Mask) << (8 * uint(fl.Off%8))
		buf[i] = math.Float64frombits(bits)
	}
}
