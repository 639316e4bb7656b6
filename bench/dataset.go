package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
)

const (
	stampLen   = 12
	minFile    = 1 << 10
	maxFile    = 32 << 10
	numClasses = 128
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dataset is the generated input: every byte derives from the seed, and
// every file opens with a stamp (index, length, seed mix) so a delivered
// sample identifies itself without the benchmark keeping a copy per read.
type dataset struct {
	name  string
	seed  int64
	paths []string
	offs  []int64 // file i is blob[offs[i]:offs[i+1]]
	blob  []byte
	sums  []uint32 // CRC-32C of each file, for the full-content pass
}

func stampMix(seed int64, idx int) uint32 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	return uint32(x >> 32)
}

// genDataset makes n files clsNNN/imgNNNNNN.jpg with log-uniform sizes
// in [1 KiB, 32 KiB] (mean ≈ 9 KiB) and pseudo-random content.
func genDataset(name string, seed int64, n int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{
		name:  name,
		seed:  seed,
		paths: make([]string, n),
		offs:  make([]int64, n+1),
		sums:  make([]uint32, n),
	}
	lo, hi := math.Log(minFile), math.Log(maxFile)
	for i := range n {
		d.paths[i] = fmt.Sprintf("cls%03d/img%06d.jpg", i%numClasses, i)
		size := int64(math.Exp(lo + rng.Float64()*(hi-lo)))
		d.offs[i+1] = d.offs[i] + size
	}
	d.blob = make([]byte, d.offs[n])
	// xorshift64* fill, eight bytes at a time: generation must not
	// dominate a run that sets up several times.
	x := uint64(seed)*2685821657736338717 + 1
	full := len(d.blob) &^ 7
	for o := 0; o < full; o += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(d.blob[o:], x*2685821657736338717)
	}
	for i := range n {
		f := d.file(i)
		binary.LittleEndian.PutUint32(f[0:], uint32(i))
		binary.LittleEndian.PutUint32(f[4:], uint32(len(f)))
		binary.LittleEndian.PutUint32(f[8:], stampMix(seed, i))
		d.sums[i] = crc32.Checksum(f, castagnoli)
	}
	return d
}

func (d *dataset) files() int     { return len(d.paths) }
func (d *dataset) bytes() int64   { return d.offs[len(d.paths)] }
func (d *dataset) size(i int) int { return int(d.offs[i+1] - d.offs[i]) }
func (d *dataset) file(i int) []byte {
	return d.blob[d.offs[i]:d.offs[i+1]:d.offs[i+1]]
}

// indexOf recovers the file index from a generated path (the six digits
// before ".jpg"); -1 if the path is not one of ours.
func (d *dataset) indexOf(path string) int {
	if len(path) < 10 {
		return -1
	}
	idx := 0
	for _, c := range []byte(path[len(path)-10 : len(path)-4]) {
		if c < '0' || c > '9' {
			return -1
		}
		idx = idx*10 + int(c-'0')
	}
	if idx >= len(d.paths) {
		return -1
	}
	return idx
}

// checkStamp is the per-sample check of timed runs: length and stamp
// must be those of file idx.
func (d *dataset) checkStamp(idx int, data []byte) bool {
	if idx < 0 || len(data) != d.size(idx) || len(data) < stampLen {
		return false
	}
	return binary.LittleEndian.Uint32(data[0:]) == uint32(idx) &&
		binary.LittleEndian.Uint32(data[4:]) == uint32(len(data)) &&
		binary.LittleEndian.Uint32(data[8:]) == stampMix(d.seed, idx)
}

// checkFull is the set-up pass's check: stamp plus a hash of every byte.
func (d *dataset) checkFull(idx int, data []byte) bool {
	return d.checkStamp(idx, data) && crc32.Checksum(data, castagnoli) == d.sums[idx]
}
