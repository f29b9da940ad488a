// Package store is a pure-Go single-file embedded key/value store for
// campaign cell results: an append-only log of length-prefixed,
// CRC32C-checksummed (key, value) records split across numbered segment
// files, with an in-memory index rebuilt on open. Writes are
// write-behind — Put parks the record in a bounded in-memory buffer and
// a dedicated flusher goroutine batches records to disk on a ticker or
// a size threshold, so callers on the measurement hot path never wait
// for a syscall — while reads are served from the buffer or by a single
// pread through the index. Superseded records are dropped by rewriting
// the live ones (compaction).
//
// Durability contract: everything written before a successful Sync (or
// Close) survives a crash; a torn or bit-flipped tail is detected by
// the per-record checksum on the next Open and cleanly truncated, so a
// reopened store never returns a corrupt value — at worst it has
// forgotten the records that were never fully flushed.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Segment file layout:
//
//	header:  8-byte magic "savatseg" | u32 LE format version | u32 LE zero
//	records: u32 LE payload length | u32 LE CRC32C(payload) | payload
//	payload: u32 LE key length | key bytes | value bytes
//
// The header is written and fsynced before the first record, so a
// segment whose header is torn provably holds no durable records and
// can be reset. Records carry their own checksum: replay stops (and
// truncates) at the first record whose length or checksum does not
// hold, which is exactly the crash-recovery invariant — a valid prefix
// of fully-flushed records, nothing else.
const (
	// Version is the current segment-file format version. A segment
	// carrying a greater version fails Open with ErrFutureVersion: this
	// build cannot know how to read it, and must not guess.
	Version = 1

	magic         = "savatseg"
	headerSize    = 16
	recHeaderSize = 8 // payload length + checksum

	// MaxRecordBytes bounds one record's payload. It exists to keep a
	// corrupted length prefix from allocating gigabytes during replay;
	// cell records are tens of bytes.
	MaxRecordBytes = 64 << 20
)

// Sentinel errors; test with errors.Is.
var (
	// ErrFutureVersion reports a segment written by a newer format
	// version than this build understands.
	ErrFutureVersion = errors.New("store: segment format version is from the future")
	// ErrBadHeader reports a file that is not a segment file at all.
	ErrBadHeader = errors.New("store: not a segment file")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// errTorn reports an incomplete record at the end of a segment — the
	// expected shape of a crash mid-append. Recovery truncates it.
	errTorn = errors.New("store: torn record")
	// errCorrupt reports a record whose checksum or internal lengths do
	// not hold. Recovery treats it like a torn tail.
	errCorrupt = errors.New("store: corrupt record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeHeader returns a fresh segment-file header.
func encodeHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	return h
}

// checkHeader validates a segment-file header prefix.
func checkHeader(h []byte) error {
	if len(h) < headerSize || string(h[:8]) != magic {
		return ErrBadHeader
	}
	v := binary.LittleEndian.Uint32(h[8:])
	if v > Version {
		return fmt.Errorf("%w: version %d, this build reads ≤ %d", ErrFutureVersion, v, Version)
	}
	if v == 0 {
		return fmt.Errorf("%w: version 0", ErrBadHeader)
	}
	return nil
}

// AppendRecord appends the encoding of one (key, value) record to buf
// and returns the extended slice.
func AppendRecord(buf []byte, key string, val []byte) []byte {
	payload := 4 + len(key) + len(val)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(payload))
	buf = append(buf, u32[:]...)
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // checksum backpatched below
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	buf = append(buf, u32[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	crc := crc32.Checksum(buf[crcAt+4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// recordSize returns the encoded size of one (key, value) record.
func recordSize(key string, val []byte) int {
	return recHeaderSize + 4 + len(key) + len(val)
}

// valueOffset returns the offset of the value bytes within an encoded
// record, counted from the record's first byte.
func valueOffset(key string) int { return recHeaderSize + 4 + len(key) }

// DecodeRecord decodes the first record in data, returning the key and
// value (subslices of data — copy before retaining) and the number of
// bytes consumed. It returns an error satisfying errors.Is against the
// package's torn/corrupt sentinels for anything that is not a complete,
// checksum-valid record; it never panics on arbitrary input.
func DecodeRecord(data []byte) (key string, val []byte, n int, err error) {
	if len(data) < recHeaderSize {
		return "", nil, 0, errTorn
	}
	payloadLen := binary.LittleEndian.Uint32(data)
	if payloadLen < 4 || payloadLen > MaxRecordBytes {
		return "", nil, 0, fmt.Errorf("%w: payload length %d", errCorrupt, payloadLen)
	}
	n = recHeaderSize + int(payloadLen)
	if len(data) < n {
		return "", nil, 0, errTorn
	}
	payload := data[recHeaderSize:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return "", nil, 0, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	keyLen := binary.LittleEndian.Uint32(payload)
	if int(keyLen) > len(payload)-4 {
		return "", nil, 0, fmt.Errorf("%w: key length %d in %d-byte payload", errCorrupt, keyLen, len(payload))
	}
	return string(payload[4 : 4+keyLen]), payload[4+keyLen:], n, nil
}

// EncodeFloat64 encodes a float64 value as its 8 IEEE-754 bits, little
// endian — the value codec the engine's store-backed cache uses. It
// round-trips every bit pattern, non-finite values included.
func EncodeFloat64(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

// DecodeFloat64 decodes an EncodeFloat64 value.
func DecodeFloat64(b []byte) (float64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), true
}
