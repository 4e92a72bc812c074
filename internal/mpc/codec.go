package mpc

import (
	"fmt"
	"math"
)

// Word-level encoding helpers. The MPC model counts communication in words;
// algorithms in this repository encode their records as []uint64 so the
// accounting is exact. Conventions:
//
//   - a vertex id or integer field is one word;
//   - a float64 field is one word (its IEEE-754 bits).

// PutFloat encodes a float64 as a word.
func PutFloat(f float64) uint64 { return math.Float64bits(f) }

// GetFloat decodes a word written by PutFloat.
func GetFloat(w uint64) float64 { return math.Float64frombits(w) }

// EdgeRecordWords is the size of an encoded edge record: two endpoints and
// one weight.
const EdgeRecordWords = 3

// SetEdgeRecord writes (u, v, weight) at record index i of a pre-sized
// buffer (an arena-backed message buffer obtained from Machine.Alloc).
func SetEdgeRecord(buf []uint64, i int, u, v int32, weight float64) {
	o := i * EdgeRecordWords
	buf[o] = uint64(uint32(u))
	buf[o+1] = uint64(uint32(v))
	buf[o+2] = PutFloat(weight)
}

// DecodeEdgeRecord reads the record at offset i*EdgeRecordWords.
func DecodeEdgeRecord(buf []uint64, i int) (u, v int32, weight float64) {
	o := i * EdgeRecordWords
	return int32(uint32(buf[o])), int32(uint32(buf[o+1])), GetFloat(buf[o+2])
}

// VertexRecordWords is the size of an encoded vertex record: id and value.
const VertexRecordWords = 2

// SetVertexRecord writes (v, value) at record index i of a pre-sized buffer.
func SetVertexRecord(buf []uint64, i int, v int32, value float64) {
	o := i * VertexRecordWords
	buf[o] = uint64(uint32(v))
	buf[o+1] = PutFloat(value)
}

// DecodeVertexRecord reads the record at offset i*VertexRecordWords.
func DecodeVertexRecord(buf []uint64, i int) (v int32, value float64) {
	o := i * VertexRecordWords
	return int32(uint32(buf[o])), GetFloat(buf[o+1])
}

// ResultRecordWords is the size of a local-simulation result record:
// vertex id and the iteration at which it froze (or sentinel).
const ResultRecordWords = 2

// SetResultRecord writes (v, freezeIter) at record index i of a pre-sized
// buffer.
func SetResultRecord(buf []uint64, i int, v int32, freezeIter int) {
	o := i * ResultRecordWords
	buf[o] = uint64(uint32(v))
	buf[o+1] = uint64(int64(freezeIter))
}

// DecodeResultRecord reads the record at offset i*ResultRecordWords.
func DecodeResultRecord(buf []uint64, i int) (v int32, freezeIter int) {
	o := i * ResultRecordWords
	return int32(uint32(buf[o])), int(int64(buf[o+1]))
}

// CheckRecordCount validates that buf holds an integral number of records of
// the given size.
func CheckRecordCount(buf []uint64, recordWords int) (int, error) {
	if len(buf)%recordWords != 0 {
		return 0, fmt.Errorf("mpc: payload of %d words is not a multiple of record size %d", len(buf), recordWords)
	}
	return len(buf) / recordWords, nil
}
