package scheduler

import (
	"fmt"
	"testing"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty node name accepted")
	}
	r, err := NewRing([]string{"b", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Nodes() = %v, want [a b]", got)
	}
}

func TestRingAssignmentIsOrderIndependent(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Node(key) != b.Node(key) {
			t.Fatalf("key %q: assignment differs across construction orders (%s vs %s)",
				key, a.Node(key), b.Node(key))
		}
	}
}

// TestRingPlacementPinned pins the home node of a few digest-shaped keys
// on a fixed port set.  Virtual-point placement decides where every
// cached result lives, so changing it remaps the whole fleet's keys
// once; this test makes such a change a deliberate edit.
func TestRingPlacementPinned(t *testing.T) {
	r, err := NewRing([]string{"http://127.0.0.1:8731", "http://127.0.0.1:8732", "http://127.0.0.1:8733"})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"c8d77bf4d8b1a10d": "http://127.0.0.1:8733",
		"d1c53a62be2ad340": "http://127.0.0.1:8733",
		"d493f8869139bac7": "http://127.0.0.1:8731",
		"94f0fa7f897ccce6": "http://127.0.0.1:8733",
		"d3cec99112255db9": "http://127.0.0.1:8732",
		"846e1b9373d9e08e": "http://127.0.0.1:8732",
	} {
		if got := r.Node(key); got != want {
			t.Errorf("key %s homes on %s, pinned %s", key, got, want)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 10_000
	for i := 0; i < keys; i++ {
		counts[r.Node(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range r.Nodes() {
		if c := counts[n]; c < keys/10 {
			t.Errorf("node %s owns only %d/%d keys — ring badly unbalanced", n, c, keys)
		}
	}
}

func TestRingRemovalMovesOnlyLostKeys(t *testing.T) {
	full, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Node(key)
		after := reduced.Node(key)
		// Consistent hashing: only keys whose home was the removed node
		// may move.
		if before != "n3" && after != before {
			t.Fatalf("key %q moved from surviving node %s to %s when n3 left", key, before, after)
		}
		// Keys that lose their home land on their next ring node.
		if before == "n3" {
			if want := full.Sequence(key)[1]; after != want {
				t.Fatalf("key %q re-homed to %s, want next ring node %s", key, after, want)
			}
		}
	}
}

func TestRingSequenceCoversAllNodesOnce(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		if len(seq) != 4 {
			t.Fatalf("key %q: sequence %v does not cover the ring", key, seq)
		}
		if seq[0] != r.Node(key) {
			t.Fatalf("key %q: sequence head %s != home node %s", key, seq[0], r.Node(key))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("key %q: node %s repeats in sequence %v", key, n, seq)
			}
			seen[n] = true
		}
	}
}
