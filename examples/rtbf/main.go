// Right to be forgotten (G 17) end to end: a customer requests erasure,
// the TTL machinery purges expired records, and the regulator verifies
// the deletions — the paper's timely-deletion story on the PostgreSQL-
// model engine with its 1-second TTL daemon semantics.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	gdprbench "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "gdpr-rtbf-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := gdprbench.OpenEngine(gdprbench.Options{
		Engine:     "postgres",
		Dir:        dir,
		Compliance: gdprbench.FullCompliance(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	controller := gdprbench.ControllerActor()
	now := time.Now()

	// Morpheus has three records: two long-lived, one about to expire.
	recs := []gdprbench.Record{
		{Key: "profile-m1", Data: "morpheus-profile", Meta: gdprbench.Metadata{
			Purposes: []string{"account"}, Expiry: now.Add(365 * 24 * time.Hour),
			User: "morpheus", Source: "signup"}},
		{Key: "search-m2", Data: "red pill suppliers", Meta: gdprbench.Metadata{
			Purposes: []string{"search-history"}, Expiry: now.Add(365 * 24 * time.Hour),
			User: "morpheus", Source: "search-box"}},
		{Key: "session-m3", Data: "session-token-xyz", Meta: gdprbench.Metadata{
			Purposes: []string{"session"}, Expiry: now.Add(300 * time.Millisecond),
			User: "morpheus", Source: "login"}},
	}
	for _, r := range recs {
		if err := db.CreateRecord(controller, r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("controller stored 3 records for morpheus")

	// 1. The customer exercises the right to be forgotten on the search
	// history (G 17): strict interpretation = synchronous erasure.
	morpheus := gdprbench.CustomerActor("morpheus")
	n, err := db.DeleteRecord(morpheus, gdprbench.ByKey("search-m2"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("right to be forgotten: erased %d record(s) synchronously\n", n)

	// 2. The session record expires on its own; the TTL daemon (1-second
	// period, §5.2) purges it.
	time.Sleep(1500 * time.Millisecond)
	fmt.Println("waited for the TTL daemon cycle...")

	// 3. The regulator verifies both deletions (and that the long-lived
	// record is still there).
	regulator := gdprbench.RegulatorActor()
	present, err := db.VerifyDeletion(regulator, []string{"search-m2", "session-m3"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regulator verify-deletion: %d of 2 erased records still present\n", present)
	if present != 0 {
		log.Fatal("deletion verification FAILED")
	}

	remaining, err := db.ReadData(morpheus, gdprbench.ByUser("morpheus"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("morpheus still has %d live record(s): %s\n", len(remaining), remaining[0].Key)

	// 4. Every step above is in the audit trail (G 30).
	logs, err := db.GetSystemLogs(regulator, now.Add(-time.Minute), time.Now())
	if err != nil {
		log.Fatal(err)
	}
	deletes := 0
	for _, e := range logs {
		if e.Op == "DELETE-RECORD" || e.Op == "DELETE" {
			deletes++
		}
	}
	fmt.Printf("audit trail: %d entries, %d deletion events recorded\n", len(logs), deletes)
}
