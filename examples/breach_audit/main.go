// Breach investigation (G 33, 34): after a suspected breach window, the
// regulator pulls time-ranged system logs to determine which operations
// touched personal data, then inspects the metadata of affected users —
// the paper's regulator workload as a concrete scenario.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	gdprbench "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "gdpr-breach-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := gdprbench.OpenEngine(gdprbench.Options{
		Engine:     "redis",
		Dir:        dir,
		Compliance: gdprbench.FullCompliance(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	controller := gdprbench.ControllerActor()
	now := time.Now()

	// Seed a handful of users' records.
	users := []string{"alice", "bob", "carol"}
	for i, u := range users {
		rec := gdprbench.Record{
			Key:  fmt.Sprintf("cc-%d", i),
			Data: fmt.Sprintf("4111-0000-0000-000%d", i),
			Meta: gdprbench.Metadata{
				Purposes: []string{"billing"},
				Expiry:   now.Add(365 * 24 * time.Hour),
				User:     u,
				Source:   "checkout",
			},
		}
		if err := db.CreateRecord(controller, rec); err != nil {
			log.Fatal(err)
		}
	}

	// --- the suspected breach window begins ---
	breachStart := time.Now()
	rogue := gdprbench.ProcessorActor("rogue-job", "billing")
	for i := range users {
		if _, err := db.ReadData(rogue, gdprbench.ByKey(fmt.Sprintf("cc-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	breachEnd := time.Now()
	// --- the suspected breach window ends ---

	regulator := gdprbench.RegulatorActor()

	// 1. Pull the system logs for exactly the breach window (G 33(3a)
	// requires reporting the approximate number of affected customers).
	entries, err := db.GetSystemLogs(regulator, breachStart, breachEnd)
	if err != nil {
		log.Fatal(err)
	}
	touched := map[string]bool{}
	for _, e := range entries {
		if e.Op == "READ-DATA" && e.Actor == "processor:rogue-job" {
			touched[e.Target] = true
		}
	}
	fmt.Printf("breach window logs: %d entries; rogue processor read %d distinct targets\n",
		len(entries), len(touched))

	// 2. For each affected record, inspect the metadata to identify the
	// data subjects who must be notified.
	affected := map[string]bool{}
	for i := range users {
		meta, err := db.ReadMetadata(regulator, gdprbench.ByKey(fmt.Sprintf("cc-%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range meta {
			affected[m.Meta.User] = true
		}
	}
	fmt.Printf("affected data subjects to notify within 72 hours: %d (%v)\n",
		len(affected), keys(affected))

	// 3. The regulator never sees the personal data itself.
	if got, _ := db.ReadData(regulator, gdprbench.ByUser("alice")); len(got) != 0 {
		log.Fatal("regulator should not read personal data")
	}
	fmt.Println("regulator access to raw personal data: denied (G 31: metadata only)")
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
