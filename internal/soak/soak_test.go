package soak

import (
	"strings"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/workload"
)

func shortCfg(app string) Config {
	return Config{
		App: app, Clients: 4, Partitions: 2,
		Keys: 128, OpsPerClient: 120, Phases: 2,
		Seed: 1,
	}
}

// Fixed apps must audit clean after every crash+recover cycle, under
// every fault class (all classes stay inside the clwb/sfence
// contract, so acknowledged writes survive by construction).
func TestFixedAppsAuditCleanUnderAllFaults(t *testing.T) {
	schedules := [][]faultinj.Class{nil}
	for _, cl := range faultinj.AllClasses() {
		schedules = append(schedules, []faultinj.Class{cl})
	}
	for _, app := range []string{"memcache", "redis", "nstore"} {
		for _, faults := range schedules {
			cfg := shortCfg(app)
			cfg.Faults = faults
			cfg.FaultRate = 0.2
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s faults=%v: %v", app, faults, err)
			}
			if res.TotalWitnesses != 0 {
				t.Errorf("%s faults=%v: fixed app produced %d witnesses:\n%s",
					app, faults, res.TotalWitnesses, res.Phases[0].DiffSample)
			}
			if len(res.Phases) != cfg.Phases {
				t.Errorf("%s: %d phase audits, want %d", app, len(res.Phases), cfg.Phases)
			}
			for _, ph := range res.Phases {
				if ph.Audited == 0 {
					t.Errorf("%s faults=%v: phase %d audited 0 keys", app, faults, ph.Phase)
				}
			}
			// Torn writes need multi-granule stores; memcache and
			// nstore persist word-at-a-time, so torn can only fire on
			// redis's byte-buffer stores.
			canFire := len(faults) > 0 &&
				(faults[0] != faultinj.TornWrite || app == "redis")
			if canFire && res.Phases[len(res.Phases)-1].Injections == 0 {
				t.Errorf("%s faults=%v: fault class never fired", app, faults)
			}
		}
	}
}

// Planted-bug apps must produce witnessed inconsistencies: every
// acknowledged write is lost on crash (mnemosyne without commit
// fences persists nothing; nstore without the post-apply flush+fence
// leaves tuples dirty forever and has no recovery pass).
func TestPlantedBugsProduceWitnesses(t *testing.T) {
	for _, app := range []string{"memcache", "nstore"} {
		cfg := shortCfg(app)
		cfg.Buggy = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s buggy: %v", app, err)
		}
		if res.TotalWitnesses == 0 {
			t.Errorf("%s: planted bug produced no witnesses", app)
		}
		if res.Phases[0].DiffSample == "" {
			t.Errorf("%s: witnesses without a diff sample", app)
		}
	}
}

// Planted bugs must still be witnessed when fault injection is active
// on top (the soak CI gate runs this combination).
func TestPlantedBugWitnessedUnderFaults(t *testing.T) {
	cfg := shortCfg("memcache")
	cfg.Buggy = true
	cfg.Faults = faultinj.AllClasses()
	cfg.FaultRate = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWitnesses == 0 {
		t.Error("planted bug not witnessed under fault injection")
	}
}

// The tracked lane must run the same audit-clean soak with the
// checker attached, and find no race in the mutex-serialized app.
func TestTrackedSoakAuditsClean(t *testing.T) {
	cfg := shortCfg("memcache")
	cfg.Tracked = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWitnesses != 0 {
		t.Errorf("tracked soak found %d witnesses", res.TotalWitnesses)
	}
	if res.CheckerStats.Writes == 0 {
		t.Error("checker saw no writes")
	}
	if res.CheckerStats.RacesFound != 0 {
		t.Errorf("mutex-serialized app reported %d races", res.CheckerStats.RacesFound)
	}
}

// Witness sets of deterministic buggy runs are reproducible: same
// config, same diff samples and counts.
func TestBuggyWitnessesDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := shortCfg("nstore")
		cfg.Buggy = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalWitnesses != b.TotalWitnesses {
		t.Fatalf("witness counts diverge: %d vs %d", a.TotalWitnesses, b.TotalWitnesses)
	}
	for i := range a.Phases {
		if a.Phases[i].DiffSample != b.Phases[i].DiffSample {
			t.Fatalf("phase %d diff samples diverge:\n%s\nvs\n%s",
				i+1, a.Phases[i].DiffSample, b.Phases[i].DiffSample)
		}
	}
}

// Key-ownership invariant: no two clients may ever write the same key
// (the audit's exactness depends on it), across updates, RMWs and
// strided inserts.
func TestWriteOwnershipDisjoint(t *testing.T) {
	cfg := shortCfg("memcache")
	cfg.Keys = 100 // deliberately not a multiple of the client count
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Re-derive ownership from the soak's own remapping helpers.
	for k := uint64(0); k < 1000; k++ {
		for c := 0; c < cfg.Clients; c++ {
			ok := owned(k, cfg.Clients, c)
			if ok%uint64(cfg.Clients) != uint64(c) {
				t.Fatalf("owned(%d, %d, %d) = %d escapes the residue class", k, cfg.Clients, c, ok)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := shortCfg("redis")
	cfg.Buggy = true
	if _, err := Run(cfg); err == nil {
		t.Error("redis has no planted bug; Buggy must be rejected")
	}
	bad := shortCfg("memcache")
	bad.Mix = workload.Mix{Name: "bad", Read: 10}
	if _, err := Run(bad); err == nil {
		t.Error("malformed mix accepted")
	}
	if _, err := Run(Config{App: "mysql"}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestResultString(t *testing.T) {
	cfg := shortCfg("memcache")
	cfg.Buggy = true
	cfg.Tracked = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"soak memcache", "planted bug", "witnesses", "checker:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// A CXL whole-heap persistence domain makes stores durable at store
// time, so the planted flush/fence bugs are healed by the hardware:
// the same buggy configs that witness under x86 must audit clean under
// -pmodel cxl, with or without fault injection on top.
func TestPlantedBugHealedByPersistenceDomain(t *testing.T) {
	for _, app := range []string{"memcache", "nstore"} {
		cfg := shortCfg(app)
		cfg.Buggy = true
		cfg.PModel = "cxl"
		cfg.Faults = faultinj.AllClasses()
		cfg.FaultRate = 0.2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s buggy under cxl: %v", app, err)
		}
		if res.TotalWitnesses != 0 {
			t.Errorf("%s: %d witnesses under a whole-heap persistence domain (stores are durable at store time)",
				app, res.TotalWitnesses)
		}
		if res.PModel != "cxl" {
			t.Errorf("%s: result pmodel = %q, want cxl", app, res.PModel)
		}
	}
}
