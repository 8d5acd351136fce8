package index

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/gdpr"
)

func rec(key, user string, purposes, objections, decisions, shares []string) gdpr.Record {
	return gdpr.Record{
		Key:  key,
		Data: "d",
		Meta: gdpr.Metadata{
			User:       user,
			Purposes:   purposes,
			Objections: objections,
			Decisions:  decisions,
			SharedWith: shares,
		},
	}
}

// lookupAll is LookupChunk asked for the whole posting list.
func lookupAll(ix *Inverted, attr gdpr.Attribute, value string) ([]string, bool) {
	keys, _, full, ok := ix.LookupChunk(attr, value, "", math.MaxInt)
	if full {
		panic("a whole-list lookup came back full")
	}
	return keys, ok
}

func TestInvertedInsertLookupRemove(t *testing.T) {
	ix := NewInverted()
	r1 := rec("k1", "alice", []string{"ads", "2fa"}, []string{"ads"}, nil, []string{"acme"})
	r2 := rec("k2", "alice", []string{"ads"}, nil, []string{"scoring"}, nil)
	ix.Insert("k1", r1)
	ix.Insert("k2", r2)

	cases := []struct {
		attr  gdpr.Attribute
		value string
		want  []string
	}{
		{gdpr.AttrUser, "alice", []string{"k1", "k2"}},
		{gdpr.AttrPurpose, "ads", []string{"k1", "k2"}},
		{gdpr.AttrPurpose, "2fa", []string{"k1"}},
		{gdpr.AttrObjection, "ads", []string{"k1"}},
		{gdpr.AttrDecision, "scoring", []string{"k2"}},
		{gdpr.AttrSharing, "acme", []string{"k1"}},
		{gdpr.AttrPurpose, "absent", nil},
	}
	for _, c := range cases {
		got, ok := lookupAll(ix, c.attr, c.value)
		if !ok {
			t.Fatalf("Lookup(%s,%s) not served", c.attr, c.value)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Lookup(%s,%s) = %v, want %v", c.attr, c.value, got, c.want)
		}
	}
	if _, ok := lookupAll(ix, gdpr.AttrSource, "web"); ok {
		t.Fatal("SRC must not be an inverted dimension")
	}
	if _, ok := lookupAll(ix, gdpr.AttrTTL, "x"); ok {
		t.Fatal("TTL must not be an inverted dimension")
	}

	ix.Remove("k1", r1)
	if got, _ := lookupAll(ix, gdpr.AttrUser, "alice"); !reflect.DeepEqual(got, []string{"k2"}) {
		t.Fatalf("after remove: %v", got)
	}
	ix.Remove("k2", r2)
	if ix.Bytes() != 0 {
		t.Fatalf("bytes = %d after removing everything", ix.Bytes())
	}
}

// TestLookupChunkWalksMatchWholeList: walking a posting list in chunks
// (the bounded-heap path) from any resume point yields exactly the
// whole-list lookup (the collect-and-sort path) past that point.
func TestLookupChunkWalksMatchWholeList(t *testing.T) {
	ix := NewInverted()
	for i := 0; i < 37; i++ {
		k := fmt.Sprintf("k%02d", (i*7)%37)
		ix.Insert(k, rec(k, "u", nil, nil, nil, nil))
	}
	whole, _ := lookupAll(ix, gdpr.AttrUser, "u")
	if len(whole) != 37 {
		t.Fatalf("whole list has %d keys", len(whole))
	}
	for _, limit := range []int{1, 5, 36, 37} {
		var got []string
		after := ""
		for {
			keys, last, full, ok := ix.LookupChunk(gdpr.AttrUser, "u", after, limit)
			if !ok || len(keys) > limit {
				t.Fatalf("limit %d: ok=%v, %d keys", limit, ok, len(keys))
			}
			got = append(got, keys...)
			if !full {
				break
			}
			after = last
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("limit %d walk = %v, want %v", limit, got, whole)
		}
	}
	if keys, _, _, _ := ix.LookupChunk(gdpr.AttrUser, "u", "k30", math.MaxInt); !reflect.DeepEqual(keys, whole[31:]) {
		t.Fatalf("whole-list lookup past k30 = %v", keys)
	}
}

func TestInvertedBytesAccounting(t *testing.T) {
	ix := NewInverted()
	r := rec("key", "u", []string{"p"}, nil, nil, nil)
	ix.Insert("key", r)
	// Two postings: USR=u and PUR=p, each len(value)+len(key)+8.
	want := int64(1+3+8) + int64(1+3+8)
	if ix.Bytes() != want {
		t.Fatalf("bytes = %d, want %d", ix.Bytes(), want)
	}
	ix.Insert("key", r) // duplicate insert must not double-count
	if ix.Bytes() != want {
		t.Fatalf("bytes after dup insert = %d, want %d", ix.Bytes(), want)
	}
	ix.Reset()
	if ix.Bytes() != 0 {
		t.Fatalf("bytes after reset = %d", ix.Bytes())
	}
	if got, _ := lookupAll(ix, gdpr.AttrUser, "u"); got != nil {
		t.Fatalf("lookup after reset = %v", got)
	}
}

func TestIsDim(t *testing.T) {
	for _, a := range Dims {
		if !IsDim(a) {
			t.Fatalf("%s must be a dim", a)
		}
	}
	for _, a := range []gdpr.Attribute{gdpr.AttrKey, gdpr.AttrTTL, gdpr.AttrSource, gdpr.AttrData} {
		if IsDim(a) {
			t.Fatalf("%s must not be a dim", a)
		}
	}
}

func TestExpiryDueOrderAndCount(t *testing.T) {
	e := NewExpiry()
	base := time.Unix(1_500_000_000, 0)
	e.Set("late", base.Add(time.Hour))
	e.Set("early", base.Add(time.Minute))
	e.Set("mid", base.Add(30*time.Minute))
	e.Set("never", time.Time{}) // zero deadline is not stored
	if e.Len() != 3 {
		t.Fatalf("len = %d", e.Len())
	}

	if got := e.Due(base); got != nil {
		t.Fatalf("nothing due yet, got %v", got)
	}
	if got := e.Due(base.Add(30 * time.Minute)); !reflect.DeepEqual(got, []string{"early", "mid"}) {
		t.Fatalf("due = %v (the <=now bound must include the exact instant)", got)
	}
	if got := e.DueCount(base.Add(2 * time.Hour)); got != 3 {
		t.Fatalf("due count = %d", got)
	}

	e.Remove("mid", base.Add(30*time.Minute))
	if got := e.Due(base.Add(2 * time.Hour)); !reflect.DeepEqual(got, []string{"early", "late"}) {
		t.Fatalf("after remove: %v", got)
	}
	e.Remove("early", base.Add(time.Minute))
	e.Remove("late", base.Add(time.Hour))
	if e.Bytes() != 0 || e.Len() != 0 {
		t.Fatalf("bytes=%d len=%d after removing everything", e.Bytes(), e.Len())
	}
}

func TestExpirySameDeadlineManyKeys(t *testing.T) {
	e := NewExpiry()
	at := time.Unix(1_500_000_000, 0)
	var want []string
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		e.Set(k, at)
		want = append(want, k)
	}
	if got := e.Due(at); !reflect.DeepEqual(got, want) {
		t.Fatalf("due = %v", got)
	}
}

// TestExpiryYearOneSimClock pins that the simulated-clock convention of
// starting at time.Time{} (year 1, outside UnixNano's documented range)
// still orders deadlines correctly within a test's time window — the
// wrapped encoding is monotonic between wrap boundaries, exactly like
// relstore's time-index encoding.
func TestExpiryYearOneSimClock(t *testing.T) {
	e := NewExpiry()
	base := time.Time{}
	e.Set("short", base.Add(5*time.Minute))
	e.Set("long", base.Add(5*24*time.Hour))
	if got := e.Due(base.Add(6 * time.Minute)); !reflect.DeepEqual(got, []string{"short"}) {
		t.Fatalf("due = %v", got)
	}
	if got := e.DueCount(base.Add(6 * 24 * time.Hour)); got != 2 {
		t.Fatalf("due count = %d", got)
	}
}

func TestExpiryReset(t *testing.T) {
	e := NewExpiry()
	e.Set("k", time.Unix(100, 0))
	e.Reset()
	if e.Len() != 0 || e.Bytes() != 0 {
		t.Fatalf("reset left len=%d bytes=%d", e.Len(), e.Bytes())
	}
	if got := e.Due(time.Unix(200, 0)); got != nil {
		t.Fatalf("due after reset = %v", got)
	}
}
