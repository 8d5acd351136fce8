package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/gdpr"
)

// This file pins the Figure 1 access matrix end to end through the
// compliance middleware: a table over every GDPR role × query-type
// combination, asserting exactly which operations succeed, how many
// records each selector query yields after ACL filtering, and that
// metadata reads redact personal data for every role. The matrix is the
// middleware's contract — the differential test guarantees it is engine-
// independent, so one engine model suffices here.

// aclFixture builds a fresh access-controlled client with three records:
//
//	r-alice-ads  USR=alice PUR=[ads]              (clean processor target)
//	r-alice-obj  USR=alice PUR=[ads] OBJ=[ads]    (owner objected to ads)
//	r-bob        USR=bob   PUR=[mail] DEC=[score] (decision-making record)
func aclFixture(t *testing.T) (DB, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	db, err := Open(Options{
		Engine:         "redis",
		Dir:            t.TempDir(),
		Compliance:     Compliance{AccessControl: true, Strict: true, Logging: true},
		Clock:          sim,
		DisableDaemons: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ttl := sim.Now().Add(365 * 24 * time.Hour)
	recs := []gdpr.Record{
		{Key: "r-alice-ads", Data: "d1", Meta: gdpr.Metadata{User: "alice", Purposes: []string{"ads"}, Expiry: ttl}},
		{Key: "r-alice-obj", Data: "d2", Meta: gdpr.Metadata{User: "alice", Purposes: []string{"ads"}, Objections: []string{"ads"}, Expiry: ttl}},
		{Key: "r-bob", Data: "d3", Meta: gdpr.Metadata{User: "bob", Purposes: []string{"mail"}, Decisions: []string{"score"}, Expiry: ttl}},
	}
	for _, r := range recs {
		if err := db.CreateRecord(ControllerActor(), r); err != nil {
			t.Fatal(err)
		}
	}
	return db, sim
}

func TestACLMatrixEveryRoleByQueryType(t *testing.T) {
	actors := map[string]acl.Actor{
		"controller": ControllerActor(),
		"alice":      {Role: acl.Customer, ID: "alice"},
		"bob":        {Role: acl.Customer, ID: "bob"},
		"proc-ads":   {Role: acl.Processor, ID: "p1", Purpose: "ads"},
		"proc-mail":  {Role: acl.Processor, ID: "p2", Purpose: "mail"},
		"regulator":  RegulatorActor(),
	}
	roleOrder := []string{"controller", "alice", "bob", "proc-ads", "proc-mail", "regulator"}

	// Each query reports (records/rows affected, hard-denied). Selector
	// reads never hard-deny — disallowed records are filtered out — while
	// create and the system queries reject the whole operation.
	queries := []struct {
		name string
		run  func(db DB, a acl.Actor, sim *clock.Sim) (int, error)
		want map[string]int // rows per role; -1 = expect a DeniedError
	}{
		{
			name: "create-record",
			run: func(db DB, a acl.Actor, sim *clock.Sim) (int, error) {
				rec := gdpr.Record{Key: "r-new", Data: "d", Meta: gdpr.Metadata{
					User: "carol", Purposes: []string{"ads"}, Expiry: sim.Now().Add(time.Hour),
				}}
				if err := db.CreateRecord(a, rec); err != nil {
					return 0, err
				}
				return 1, nil
			},
			// Figure 1: only the controller creates records.
			want: map[string]int{"controller": 1, "alice": -1, "bob": -1, "proc-ads": -1, "proc-mail": -1, "regulator": -1},
		},
		{
			name: "read-data-by-usr",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				recs, err := db.ReadData(a, gdpr.ByUser("alice"))
				return len(recs), err
			},
			// proc-ads sees only the non-objecting ads record (G 21);
			// proc-mail holds no granted purpose; the regulator never
			// reads personal data.
			want: map[string]int{"controller": 2, "alice": 2, "bob": 0, "proc-ads": 1, "proc-mail": 0, "regulator": 0},
		},
		{
			name: "read-data-by-pur",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				recs, err := db.ReadData(a, gdpr.ByPurpose("ads"))
				return len(recs), err
			},
			want: map[string]int{"controller": 2, "alice": 2, "bob": 0, "proc-ads": 1, "proc-mail": 0, "regulator": 0},
		},
		{
			name: "read-metadata-by-usr",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				recs, err := db.ReadMetadata(a, gdpr.ByUser("alice"))
				for _, r := range recs {
					if r.Data != "" {
						return len(recs), errors.New("metadata read leaked personal data")
					}
				}
				return len(recs), err
			},
			// Regulators read metadata (G 31); processors never do.
			want: map[string]int{"controller": 2, "alice": 2, "bob": 0, "proc-ads": 0, "proc-mail": 0, "regulator": 2},
		},
		{
			name: "update-data-by-key",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.UpdateData(a, "r-alice-ads", "rectified")
			},
			// Rectification (G 16): the owner and the controller only.
			want: map[string]int{"controller": 1, "alice": 1, "bob": 0, "proc-ads": 0, "proc-mail": 0, "regulator": 0},
		},
		{
			name: "update-metadata-obj",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.UpdateMetadata(a, gdpr.ByKey("r-alice-ads"),
					gdpr.Delta{Attr: gdpr.AttrObjection, Op: gdpr.DeltaAdd, Values: []string{"ads"}})
			},
			// Objections (G 21): owner and controller; processors may only
			// touch DEC metadata.
			want: map[string]int{"controller": 1, "alice": 1, "bob": 0, "proc-ads": 0, "proc-mail": 0, "regulator": 0},
		},
		{
			name: "update-metadata-dec",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.UpdateMetadata(a, gdpr.ByKey("r-bob"),
					gdpr.Delta{Attr: gdpr.AttrDecision, Op: gdpr.DeltaAdd, Values: []string{"rank"}})
			},
			// G 22.3: processors register automated-decision use; the
			// record's owner (bob) and the controller also may.
			want: map[string]int{"controller": 1, "alice": 0, "bob": 1, "proc-ads": 1, "proc-mail": 1, "regulator": 0},
		},
		{
			name: "delete-record-by-key",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.DeleteRecord(a, gdpr.ByKey("r-alice-ads"))
			},
			// Erasure (G 17): owner and controller.
			want: map[string]int{"controller": 1, "alice": 1, "bob": 0, "proc-ads": 0, "proc-mail": 0, "regulator": 0},
		},
		{
			name: "delete-record-by-ttl",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.DeleteRecord(a, gdpr.ByExpiredAt(time.Unix(1_400_000_000, 0)))
			},
			// The TTL purge is a controller-only maintenance operation.
			want: map[string]int{"controller": 0, "alice": -1, "bob": -1, "proc-ads": -1, "proc-mail": -1, "regulator": -1},
		},
		{
			name: "get-system-logs",
			run: func(db DB, a acl.Actor, sim *clock.Sim) (int, error) {
				entries, err := db.GetSystemLogs(a, sim.Now().Add(-time.Hour), sim.Now())
				return len(entries), err
			},
			// G 30/33/34: regulators investigate, controllers produce.
			// Row counts vary with the audit trail, so only denial is
			// pinned (-2 marks "must succeed, count unchecked"; 0 would
			// pin the count to exactly zero).
			want: map[string]int{"controller": -2, "alice": -1, "bob": -1, "proc-ads": -1, "proc-mail": -1, "regulator": -2},
		},
		{
			name: "get-system-features",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				_, err := db.GetSystemFeatures(a)
				return 0, err
			},
			// Capability discovery (G 24/25) is open to every role.
			want: map[string]int{"controller": -2, "alice": -2, "bob": -2, "proc-ads": -2, "proc-mail": -2, "regulator": -2},
		},
		{
			name: "verify-deletion",
			run: func(db DB, a acl.Actor, _ *clock.Sim) (int, error) {
				return db.VerifyDeletion(a, []string{"never-existed"})
			},
			// Processors alone cannot audit deletions.
			want: map[string]int{"controller": 0, "alice": 0, "bob": 0, "proc-ads": -1, "proc-mail": -1, "regulator": 0},
		},
	}

	for _, q := range queries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			for _, role := range roleOrder {
				// A fresh fixture per combination: mutating queries must
				// not bleed into the next role's expectations.
				db, sim := aclFixture(t)
				n, err := q.run(db, actors[role], sim)
				want := q.want[role]
				var denied *acl.DeniedError
				switch {
				case want == -1:
					if !errors.As(err, &denied) {
						t.Fatalf("%s/%s: want DeniedError, got n=%d err=%v", q.name, role, n, err)
					}
				case err != nil:
					t.Fatalf("%s/%s: unexpected error %v", q.name, role, err)
				case want >= 0 && n != want:
					t.Fatalf("%s/%s: n=%d, want %d", q.name, role, n, want)
				}
			}
		})
	}
}

// TestMetadataRedactionAcrossRoles pins that ReadMetadata strips the Data
// field for every role that can see records at all, on both key and
// selector paths.
func TestMetadataRedactionAcrossRoles(t *testing.T) {
	db, _ := aclFixture(t)
	cases := []struct {
		role acl.Actor
		sel  gdpr.Selector
		want int
	}{
		{ControllerActor(), gdpr.ByKey("r-alice-ads"), 1},
		{ControllerActor(), gdpr.ByUser("alice"), 2},
		{acl.Actor{Role: acl.Customer, ID: "bob"}, gdpr.ByKey("r-bob"), 1},
		{RegulatorActor(), gdpr.ByUser("bob"), 1},
		{RegulatorActor(), gdpr.ByShare("none"), 0},
	}
	for _, c := range cases {
		recs, err := db.ReadMetadata(c.role, c.sel)
		if err != nil {
			t.Fatalf("%v %v: %v", c.role, c.sel, err)
		}
		if len(recs) != c.want {
			t.Fatalf("%v %v: %d records, want %d", c.role, c.sel, len(recs), c.want)
		}
		for _, r := range recs {
			if r.Data != "" {
				t.Fatalf("%v %v: record %q leaked data %q", c.role, c.sel, r.Key, r.Data)
			}
			if r.Meta.User == "" {
				t.Fatalf("%v %v: record %q lost its metadata", c.role, c.sel, r.Key)
			}
		}
	}
}
