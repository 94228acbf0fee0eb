package main

// check-cold: cold static checks of Table-9-family modules, one at a
// time, from PIR text to report JSON.  Every call into DeepMC made by
// this workload is in this file, except the corpus baseline and the
// traced pass's layered pipeline, which are in pipeline.go.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

const (
	// checkColdOpsPerSecond sets the op count: ops take about a second
	// each, and 60 keep the median's sampling noise near 5%.
	checkColdOpsPerSecond = 6
	checkColdMinFuncs     = 50
	checkColdMaxFuncs     = 620 // NStore's size in Table 9
	checkColdWarmFuncs    = 300
	// checkColdCatalogueSize modules are pinned; a run draws from them.
	checkColdCatalogueSize = 80
)

type checkCold struct {
	p        params
	texts    []string // PIR source of each op's module
	keys     []string // "funcs:seed" of each op's module
	corpusOK bool
	// digests are the report digests of the last untraced pass, which
	// ran core.Analyze; a traced pass must reproduce them byte for byte.
	digests []string
}

func newCheckCold(p params) workload { return &checkCold{p: p} }

func (w *checkCold) close() { w.texts = nil }

func (w *checkCold) setup(bool) error {
	w.close()
	_, ok, err := corpusBaseline()
	if err != nil {
		return err
	}
	w.corpusOK = ok
	specs := checkColdSpecs(w.p.seed, checkColdOpsPerSecond*w.p.seconds)
	specs = specs[:len(specs)/w.p.scale]
	w.texts = make([]string, len(specs))
	w.keys = make([]string, len(specs))
	for i, s := range specs {
		w.texts[i] = ir.Print(core.GenerateApp(s))
		w.keys[i] = fmt.Sprintf("%d:%d", s.Funcs, s.Seed)
	}
	warm := core.AppSpec{Name: "warmup", Funcs: checkColdWarmFuncs, CallDepth: 3, Seed: 1}
	_, _, err = analyzeText(ir.Print(core.GenerateApp(warm)))
	return err
}

// checkColdCatalogue is the fixed set of modules ops are drawn from:
// sizes evenly spaced over [checkColdMinFuncs, checkColdMaxFuncs], each
// with its own generator seed.  Every entry's report digest is pinned.
func checkColdCatalogue() []core.AppSpec {
	specs := make([]core.AppSpec, checkColdCatalogueSize)
	for k := range specs {
		funcs := checkColdMinFuncs + k*(checkColdMaxFuncs-checkColdMinFuncs)/(checkColdCatalogueSize-1)
		specs[k] = core.AppSpec{Name: fmt.Sprintf("app%d", k), Funcs: funcs, CallDepth: 3, Seed: int64(k + 1)}
	}
	return specs
}

// checkColdSpecs draws n ops from the catalogue, stratified: op j takes
// a seeded quantile in the j-th of n equal probability slices of a
// triangular size distribution over the catalogue, peaked at its middle,
// and the ops run in seeded order.  Stratifying keeps the size
// distribution the same for every seed; the peak puts more ops near the
// median, so the p50 does not hinge on the few ops that straddle it.
func checkColdSpecs(seed int64, n int) []core.AppSpec {
	rng := rand.New(rand.NewSource(seed))
	cat := checkColdCatalogue()
	specs := make([]core.AppSpec, n)
	for j := range specs {
		u := (float64(j) + rng.Float64()) / float64(n)
		x := math.Sqrt(u / 2) // triangular quantile on [0, 1], mode 1/2
		if u > 0.5 {
			x = 1 - math.Sqrt((1-u)/2)
		}
		specs[j] = cat[int(math.Round(x*float64(len(cat)-1)))]
	}
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// analyzeText is one untraced op: parse, analyze, render.
func analyzeText(text string) ([]byte, *report.Report, error) {
	m, err := ir.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	rep, err := core.Analyze(m, core.Config{Workers: 1}) // defaults: no cache
	if err != nil {
		return nil, nil, err
	}
	body, err := rep.JSON()
	return body, rep, err
}

// wellFormed reports whether an op's report is complete but for
// trace-entry budget skips (the generated apps' root functions exceed
// the budget by design) and round-trips through report.ParseJSON.
func wellFormed(rep *report.Report, body []byte) bool {
	for _, sk := range rep.Skipped {
		if sk.Stage != report.StageBudget {
			return false
		}
	}
	back, err := report.ParseJSON(body)
	if err != nil {
		return false
	}
	again, err := back.JSON()
	return err == nil && string(again) == string(body)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (w *checkCold) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{ops: len(w.texts), layers: map[string]float64{}}
	traced := tr != nil
	if !traced {
		w.digests = make([]string, len(w.texts))
	}
	start := time.Now()
	for i, text := range w.texts {
		t0 := time.Now()
		var body []byte
		var rep *report.Report
		var err error
		if traced {
			body, rep, err = layeredAnalyze(tr, i, text, "", nil, pr.layers)
		} else {
			body, rep, err = analyzeText(text)
		}
		pr.lat = append(pr.lat, ms(time.Since(t0)))
		pr.attempted++
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		sum := digest(body)
		ok := w.corpusOK && wellFormed(rep, body)
		if want, pinned := checkColdPinned[w.keys[i]]; pinned && want != sum[:16] {
			ok = false
		}
		if traced {
			// The layered pipeline must render core.Analyze's bytes.
			ok = ok && i < len(w.digests) && w.digests[i] == sum
		} else {
			w.digests[i] = sum
		}
		if !ok {
			pr.failed++
		}
	}
	pr.elapsed = time.Since(start)
	pr.units = float64(pr.attempted)
	for k, v := range pr.layers {
		pr.layers[k] = v / float64(pr.ops)
	}
	return pr, nil
}

// checkColdPinned holds the first 16 hex digits of the report digest
// of every catalogue module, keyed by "funcs:generator seed".
var checkColdPinned = map[string]string{
	"50:1":   "c40348b4d2536584",
	"57:2":   "c40348b4d2536584",
	"64:3":   "7b6d58dd52a5b08f",
	"71:4":   "b022d5f3a5fed79c",
	"78:5":   "4f8712041c06d145",
	"86:6":   "17193f4776436f79",
	"93:7":   "462dfbfdf16cdc0b",
	"100:8":  "7b6d58dd52a5b08f",
	"107:9":  "7b6d58dd52a5b08f",
	"114:10": "57b608ba7b99f9d9",
	"122:11": "7b6d58dd52a5b08f",
	"129:12": "7b6d58dd52a5b08f",
	"136:13": "7b6d58dd52a5b08f",
	"143:14": "a6f155c371fdebc6",
	"151:15": "b1bac3931d0ba1a3",
	"158:16": "7b6d58dd52a5b08f",
	"165:17": "7b6d58dd52a5b08f",
	"172:18": "4555c89543a86235",
	"179:19": "8b34f29281465f7b",
	"187:20": "5f3ddffcea8889b0",
	"194:21": "bb8f0c43bc023887",
	"201:22": "98eb024efdc740d6",
	"208:23": "cced11ebabb243b1",
	"215:24": "8bc79ef7a034de88",
	"223:25": "7b6d58dd52a5b08f",
	"230:26": "737677b28ae59194",
	"237:27": "b66371fe6377a7ec",
	"244:28": "0516adbd06724bd3",
	"252:29": "fa3f2e7051914996",
	"259:30": "7b6d58dd52a5b08f",
	"266:31": "7928a81a7b926efa",
	"273:32": "7b6d58dd52a5b08f",
	"280:33": "82d929428d39ba38",
	"288:34": "7b6d58dd52a5b08f",
	"295:35": "7b6d58dd52a5b08f",
	"302:36": "5d85517f8b5134e5",
	"309:37": "cac5f1430b855651",
	"316:38": "8b449bc7c3829389",
	"324:39": "7b6d58dd52a5b08f",
	"331:40": "14e5b12a94bd8b92",
	"338:41": "3eb7760ac833f94d",
	"345:42": "1a218be0698a7843",
	"353:43": "3d6840b37b80ce05",
	"360:44": "0285e4e8af50f1d4",
	"367:45": "7b6d58dd52a5b08f",
	"374:46": "011e41b322cbc5bc",
	"381:47": "7b6d58dd52a5b08f",
	"389:48": "ad16fa13ff7579e6",
	"396:49": "7b6d58dd52a5b08f",
	"403:50": "7b6d58dd52a5b08f",
	"410:51": "f8b85b82c9dd99fe",
	"417:52": "eabd2c3875da612e",
	"425:53": "7b6d58dd52a5b08f",
	"432:54": "7b6d58dd52a5b08f",
	"439:55": "7b6d58dd52a5b08f",
	"446:56": "6b77b6c363fc8f7e",
	"454:57": "f44cc49ec02914ae",
	"461:58": "fc982eae4f5c07ba",
	"468:59": "91ab1b1ddcdf0bde",
	"475:60": "9b7f76257872c7ae",
	"482:61": "c9147561118a527b",
	"490:62": "f059dc7515094bba",
	"497:63": "18d31729b25e3db3",
	"504:64": "b2aaf5d5ec42c6ce",
	"511:65": "7b6d58dd52a5b08f",
	"518:66": "657c71d51aa828d7",
	"526:67": "ae48b996e715d92f",
	"533:68": "7b6d58dd52a5b08f",
	"540:69": "7b6d58dd52a5b08f",
	"547:70": "7b6d58dd52a5b08f",
	"555:71": "88abe6abd074d780",
	"562:72": "922492a30400b01a",
	"569:73": "d7fe6380a3498450",
	"576:74": "8991732c4c825a52",
	"583:75": "d510c2281179a89b",
	"591:76": "7b6d58dd52a5b08f",
	"598:77": "570c6a99eacb2968",
	"605:78": "ac2cca505a22c621",
	"612:79": "814ba33d17cf36b6",
	"620:80": "beeb6b3683ec44b6",
}
