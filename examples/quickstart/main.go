// Quickstart: open a fully GDPR-compliant store, insert personal-data
// records as the controller, and exercise each role's view of the data.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	gdprbench "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "gdpr-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A compliant datastore: encrypted at rest and in transit, audited,
	// access-controlled, with strict TTL handling (§5's Redis retrofit).
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

	// The controller collects personal data. Every record must carry the
	// seven GDPR metadata attributes (§3.1's "metadata explosion"):
	// purpose, TTL, owner, objections, decisions, sharing, and source.
	records := []gdprbench.Record{
		{
			Key:  "ph-1x4b",
			Data: "123-456-7890",
			Meta: gdprbench.Metadata{
				Purposes: []string{"ads", "2fa"},
				Expiry:   time.Now().Add(365 * 24 * time.Hour),
				User:     "neo",
				Source:   "first-party",
			},
		},
		{
			Key:  "email-77ab",
			Data: "neo@matrix.example",
			Meta: gdprbench.Metadata{
				Purposes:   []string{"newsletter"},
				Expiry:     time.Now().Add(30 * 24 * time.Hour),
				User:       "neo",
				Objections: []string{"ads"},
				Source:     "signup-form",
			},
		},
		{
			Key:  "addr-9c01",
			Data: "1 Main St Zion",
			Meta: gdprbench.Metadata{
				Purposes:   []string{"shipping"},
				Expiry:     time.Now().Add(90 * 24 * time.Hour),
				User:       "trinity",
				SharedWith: []string{"courier-co"},
				Source:     "checkout",
			},
		},
	}
	for _, rec := range records {
		if err := db.CreateRecord(controller, rec); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("controller stored %d personal-data records\n\n", len(records))

	// The customer reads everything that concerns them (G 15).
	neo := gdprbench.CustomerActor("neo")
	mine, err := db.ReadData(neo, gdprbench.ByUser("neo"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("neo's records (right of access, G 15):\n")
	for _, r := range mine {
		fmt.Printf("  %s\n", r)
	}

	// A processor may only read data whose purposes cover its own, and
	// whose owner has not objected (G 28(3c), G 21).
	adsBot := gdprbench.ProcessorActor("ads-bot", "ads")
	visible, err := db.ReadData(adsBot, gdprbench.ByPurpose("ads"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nads processor sees %d record(s) (neo objected to ads on email-77ab):\n", len(visible))
	for _, r := range visible {
		fmt.Printf("  %s = %s\n", r.Key, r.Data)
	}

	// The regulator inspects metadata — never personal data (G 31).
	regulator := gdprbench.RegulatorActor()
	meta, err := db.ReadMetadata(regulator, gdprbench.ByShare("courier-co"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregulator: %d record(s) shared with courier-co; personal data redacted: %q\n",
		len(meta), meta[0].Data)

	// The compliance capabilities are discoverable (G 24, 25).
	features, err := db.GetSystemFeatures(regulator)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsystem features: compliance=%s aof=%s expiry=%s\n",
		features["compliance"], features["aof"], features["expiry_mode"])
}
