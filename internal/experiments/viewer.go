package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// ViewerOptions parameterizes the image-viewer experiments (§6.2,
// performed on the Lenovo T60p).
type ViewerOptions struct {
	Config apps.ViewerConfig
	// MaxRuntime bounds the simulation.
	MaxRuntime units.Time
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultViewerOptions returns the §6.2 schedule.
func DefaultViewerOptions(adaptive bool) ViewerOptions {
	return ViewerOptions{
		Config:     apps.DefaultViewerConfig(adaptive),
		MaxRuntime: units.Hour,
	}
}

// runViewer executes one viewer run on the laptop profile and returns
// the viewer plus its kernel.
func runViewer(opts ViewerOptions) (*apps.ImageViewer, *kernel.Kernel) {
	k := kernel.New(kernel.Config{
		Seed:          21,
		Profile:       power.LaptopT60p(),
		DecayHalfLife: -1,
		Reference:     opts.Reference,
	})
	v, err := apps.NewImageViewer(k, k.Root, k.KernelPriv(), k.Battery(), opts.Config)
	if err != nil {
		panic(err)
	}
	// The run begins with an accumulated reserve, as the figures show
	// (level starts near the 0.2 J peak).
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), v.Downloader, 200*units.Millijoule); err != nil {
		panic(err)
	}
	for k.Now() < opts.MaxRuntime && v.FinishedAt == 0 {
		k.Run(10 * units.Second)
	}
	return v, k
}

// viewerResult assembles the shared parts of Fig. 10/11.
func viewerResult(id, title string, v *apps.ImageViewer) (Result, *trace.Series) {
	bytesSeries := trace.NewSeries("bytes-per-image", "KiB")
	for _, im := range v.Images {
		bytesSeries.Add(im.DoneAt, im.Bytes>>10)
	}
	tbl := Table{
		Title:  "Per-image transfers",
		Header: []string{"image", "batch", "quality%", "KiB", "done_at_s"},
	}
	for _, im := range v.Images {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", im.Index),
			fmt.Sprintf("%d", im.Batch),
			fmt.Sprintf("%d", im.QualityPct),
			fmt.Sprintf("%d", im.Bytes>>10),
			fmt.Sprintf("%.0f", im.DoneAt.Seconds()),
		})
	}
	return Result{
		ID:     id,
		Title:  title,
		Tables: []Table{tbl},
		Series: []*trace.Series{v.LevelTrace, bytesSeries},
	}, bytesSeries
}

// Fig10ViewerNoScaling regenerates Figure 10: the image viewer without
// quality scaling stalls on an empty reserve and takes a long time.
func Fig10ViewerNoScaling(opts ViewerOptions) Result {
	v, _ := runViewer(opts)
	res, _ := viewerResult("fig10", "Image viewer without application scaling", v)
	res.Headline = fmt.Sprintf("finished at %v with %v stalled; constant %d KiB/image",
		v.FinishedAt, v.StalledTime, v.Images[0].Bytes>>10)

	constBytes := true
	for _, im := range v.Images {
		if im.Bytes != v.Images[0].Bytes {
			constBytes = false
		}
	}
	// "Pinned at zero": the 1 Hz level samples sit below one download
	// chunk's cost — the downloader is hand-to-mouth on tap inflow.
	chunkCost := units.Energy(opts.Config.ChunkBytes) * opts.Config.PerKiB / 1024
	pinned := false
	for _, p := range v.LevelTrace.Points() {
		if units.Energy(p.V) < chunkCost {
			pinned = true
		}
	}
	res.Checks = append(res.Checks,
		check("transfer size constant per image", "flat ≈700 KiB bars",
			constBytes, "constant=%v", constBytes),
		check("reserve pins at zero during batches (stalls)", "level hits 0; long stalls",
			pinned && v.StalledTime > 5*units.Minute,
			"pinned=%v stalled=%v", pinned, v.StalledTime),
		check("run is slow — dominated by stalls (≈2500 s scale in the paper)", "≈2500 s",
			v.FinishedAt > 15*units.Minute && v.StalledTime*10 > v.FinishedAt*7,
			"%v (%v stalled)", v.FinishedAt, v.StalledTime),
	)
	return res
}

// Fig11ViewerScaling regenerates Figure 11: with energy-aware scaling
// the viewer degrades quality, never empties the reserve, and finishes
// about five times sooner.
func Fig11ViewerScaling(opts ViewerOptions) Result {
	if !opts.Config.Adaptive {
		opts.Config.Adaptive = true
	}
	v, _ := runViewer(opts)
	res, _ := viewerResult("fig11", "Image viewer with energy-aware scaling", v)

	// Compare against the non-adaptive run for the 5× claim.
	fixedOpts := opts
	fixedOpts.Config.Adaptive = false
	fixed, _ := runViewer(fixedOpts)

	speedup := float64(fixed.FinishedAt) / float64(v.FinishedAt)
	res.Headline = fmt.Sprintf("finished at %v vs %v non-adaptive: %.1f× faster; quality adapts %d%%…%d%%",
		v.FinishedAt, fixed.FinishedAt, speedup, maxQuality(v), minQuality(v))

	zeroSeen := false
	for _, p := range v.LevelTrace.Points() {
		if p.V == 0 {
			zeroSeen = true
		}
	}
	qualityDrops := minQuality(v) < maxQuality(v)
	res.Checks = append(res.Checks,
		check("≈5× faster than non-adaptive viewer", "5×",
			speedup >= 3.5, "%.1f×", speedup),
		check("reserve never empties", "level dips but never 0",
			!zeroSeen, "zero=%v", zeroSeen),
		check("bytes per image drop as energy tightens", "declining bars",
			qualityDrops && v.TotalBytes() < fixed.TotalBytes(),
			"quality %d%%→%d%%, bytes %d vs %d KiB",
			maxQuality(v), minQuality(v), v.TotalBytes()>>10, fixed.TotalBytes()>>10),
	)
	return res
}

func minQuality(v *apps.ImageViewer) int {
	m := 100
	for _, im := range v.Images {
		if im.QualityPct < m {
			m = im.QualityPct
		}
	}
	return m
}

func maxQuality(v *apps.ImageViewer) int {
	m := 0
	for _, im := range v.Images {
		if im.QualityPct > m {
			m = im.QualityPct
		}
	}
	return m
}
