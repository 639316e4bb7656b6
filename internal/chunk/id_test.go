package chunk

import (
	"bytes"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func testGen(sec uint32) *IDGenerator {
	s := sec
	return NewIDGeneratorAt([6]byte{1, 2, 3, 4, 5, 6}, 777, func() uint32 { return s })
}

// counterOf returns the 24-bit per-second counter field.
func counterOf(id ID) uint32 {
	return uint32(id[13])<<16 | uint32(id[14])<<8 | uint32(id[15])
}

func TestIDFields(t *testing.T) {
	g := NewIDGeneratorAt([6]byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF}, 0x123456, func() uint32 { return 1_600_000_000 })
	id := g.Next()
	if id.Timestamp() != 1_600_000_000 {
		t.Errorf("Timestamp = %d", id.Timestamp())
	}
	if m := id[4:10]; !bytes.Equal(m, []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF}) {
		t.Errorf("machine field = %x", m)
	}
	if pid := id[10:13]; !bytes.Equal(pid, []byte{0x12, 0x34, 0x56}) {
		t.Errorf("process field = %x", pid)
	}
	if counterOf(id) != 0 {
		t.Errorf("Counter = %d", counterOf(id))
	}
	id2 := g.Next()
	if counterOf(id2) != 1 {
		t.Errorf("second Counter = %d", counterOf(id2))
	}
}

func TestIDStringRoundTrip(t *testing.T) {
	f := func(raw [IDSize]byte) bool {
		id := ID(raw)
		s := id.String()
		if len(s) != EncodedIDLen {
			return false
		}
		back, err := ParseID(s)
		return err == nil && back == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIDStringOrderPreserving is the key property the recovery scan relies
// on: sorting encoded IDs as strings equals sorting binary IDs, which
// equals write-time order.
func TestIDStringOrderPreserving(t *testing.T) {
	f := func(a, b [IDSize]byte) bool {
		ida, idb := ID(a), ID(b)
		return ida.Less(idb) == (ida.String() < idb.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseIDRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "short", string(make([]byte, EncodedIDLen)), "!@#$%^&*()!@#$%^&*()!@"} {
		if _, err := ParseID(s); err == nil {
			t.Errorf("ParseID(%q) should fail", s)
		}
	}
}

func TestIDGeneratorMonotonic(t *testing.T) {
	g := testGen(100)
	var prev ID
	for i := range 10000 {
		id := g.Next()
		if i > 0 && !prev.Less(id) {
			t.Fatalf("ID %d not greater than predecessor: %v vs %v", i, prev, id)
		}
		prev = id
	}
}

func TestIDGeneratorCounterOverflow(t *testing.T) {
	g := testGen(100)
	g.lastSec = 100
	g.counter = 0xFFFFFE
	a := g.Next() // counter 0xFFFFFF
	b := g.Next() // overflow: timestamp bumps, counter resets
	if !a.Less(b) {
		t.Fatalf("overflow broke ordering: %v vs %v", a, b)
	}
	if b.Timestamp() != a.Timestamp()+1 {
		t.Errorf("timestamp should advance on overflow: %d -> %d", a.Timestamp(), b.Timestamp())
	}
	if counterOf(b) != 0 {
		t.Errorf("counter should reset, got %d", counterOf(b))
	}
}

func TestIDGeneratorClockBackwards(t *testing.T) {
	sec := uint32(200)
	g := NewIDGeneratorAt([6]byte{1}, 1, func() uint32 { return sec })
	a := g.Next()
	sec = 150 // clock jumps back
	b := g.Next()
	if !a.Less(b) {
		t.Fatalf("backwards clock broke ordering: %v vs %v", a, b)
	}
}

func TestIDGeneratorConcurrentUnique(t *testing.T) {
	g := testGen(300)
	const workers, per = 8, 2000
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]ID, per)
			for i := range per {
				out[i] = g.Next()
			}
			ids[w] = out
		}()
	}
	wg.Wait()
	seen := make(map[ID]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate ID %v", id)
			}
			seen[id] = true
		}
	}
}

func TestIDsSortByWriteOrder(t *testing.T) {
	// IDs generated across advancing seconds and multiple machines sort
	// primarily by time.
	sec := uint32(1000)
	g1 := NewIDGeneratorAt([6]byte{9, 9, 9, 9, 9, 9}, 5, func() uint32 { return sec })
	g2 := NewIDGeneratorAt([6]byte{1, 1, 1, 1, 1, 1}, 6, func() uint32 { return sec })
	var ids []ID
	var times []uint32
	for i := range 20 {
		if i%3 == 0 {
			sec++
		}
		var id ID
		if i%2 == 0 {
			id = g1.Next()
		} else {
			id = g2.Next()
		}
		ids = append(ids, id)
		times = append(times, sec)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i-1].Timestamp() > ids[i].Timestamp() {
			t.Fatalf("sorted IDs out of time order at %d", i)
		}
	}
	_ = times
}

func TestNewIDGeneratorDefaultMachine(t *testing.T) {
	g := NewIDGenerator(func() uint32 { return 1 })
	id := g.Next()
	if [6]byte(id[4:10]) == [6]byte{} {
		t.Skip("machine ID all zeros (no interfaces and zero random draw is astronomically unlikely)")
	}
}
