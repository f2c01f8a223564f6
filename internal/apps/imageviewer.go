package apps

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// ViewerConfig parameterizes the energy-aware network picture gallery of
// §5.3, evaluated in §6.2 (Figures 10 and 11).
type ViewerConfig struct {
	// Adaptive enables energy-aware quality scaling (§5.3: the
	// downloader "only requests partial data from the remote interlaced
	// PNG images" when the reserve drops).
	Adaptive bool
	// TapRate feeds the downloader's reserve.
	TapRate units.Power
	// FullImageBytes is a full-quality image transfer.
	FullImageBytes int64
	// ImagesPerBatch is the page size ("each batch contained the same
	// number of images").
	ImagesPerBatch int
	// Batches is the number of pages the user views.
	Batches int
	// FirstPause and PauseStep encode the §6.2 schedule: "the first
	// pause lasted for 40 seconds, with each successive pause being
	// 5 seconds shorter".
	FirstPause units.Time
	PauseStep  units.Time
	// PerKiB is the network interface's marginal energy per KiB
	// transferred, billed to the downloader reserve.
	PerKiB units.Energy
	// Bandwidth is the sustained transfer rate in bytes/s.
	Bandwidth int64
	// ChunkBytes is the transfer/billing granularity.
	ChunkBytes int64
	// MinQualityPct floors the adaptive scaling.
	MinQualityPct int
	// LowWaterMark is the reserve level below which the adaptive viewer
	// scales down aggressively.
	LowWaterMark units.Energy
}

// DefaultViewerConfig returns the §6.2 parameters scaled to the Fig. 10
// axes: a reserve that peaks around 0.2 J, ≈700 KiB full images, nine
// batches with 40→5 s pauses.
func DefaultViewerConfig(adaptive bool) ViewerConfig {
	return ViewerConfig{
		Adaptive:       adaptive,
		TapRate:        units.Milliwatts(5),
		FullImageBytes: 700 << 10,
		ImagesPerBatch: 4,
		Batches:        9,
		FirstPause:     40 * units.Second,
		PauseStep:      5 * units.Second,
		PerKiB:         205 * units.Microjoule, // 700 KiB image ≈ 143 mJ
		Bandwidth:      2 << 20,
		ChunkBytes:     32 << 10,
		MinQualityPct:  10,
		LowWaterMark:   50 * units.Millijoule,
	}
}

// ImageRecord captures one downloaded image for the Fig. 10/11 bars.
type ImageRecord struct {
	Index      int
	Batch      int
	Bytes      int64
	QualityPct int
	DoneAt     units.Time
}

// ImageViewer is the gallery application. Its downloader thread draws
// CPU from the viewer's main reserve and bills network bytes to a
// distinct downloader reserve (§5.3: "a separate thread for downloading
// images, using an energy reserve distinct from the main thread").
type ImageViewer struct {
	cfg ViewerConfig

	Container  *kobj.Container
	Main       *core.Reserve
	Downloader *core.Reserve
	Tap        *core.Tap

	// LevelTrace samples the downloader reserve (the Fig. 10/11 line).
	LevelTrace *trace.Series
	// Images records per-image transfers (the Fig. 10/11 bars).
	Images []ImageRecord
	// FinishedAt is the completion time, 0 while running.
	FinishedAt units.Time
	// StalledTime accumulates time spent waiting for energy.
	StalledTime units.Time

	// state machine
	batch, img    int
	remaining     int64
	imgBytes      int64
	imgQuality    int
	pauseUntil    units.Time
	lastStallFrom units.Time
}

// perByteCost returns the billing for a transfer of the given size. The
// default config charges 205 µJ/KiB: a 700 KiB image costs ≈143 mJ,
// matching the 0–200 mJ reserve axis of Fig. 10.
func (v *ImageViewer) perByteCost(bytes int64) units.Energy {
	return units.Energy(bytes) * v.cfg.PerKiB / 1024
}

// NewImageViewer creates the viewer. ownerPriv must be able to use src
// (battery). The main reserve is funded generously: the experiment's
// subject is the downloader reserve.
func NewImageViewer(k *kernel.Kernel, parent *kobj.Container, ownerPriv label.Priv, src *core.Reserve, cfg ViewerConfig) (*ImageViewer, error) {
	v := &ImageViewer{cfg: cfg}
	v.Container = kobj.NewContainer(k.Table, parent, label.Public())
	v.Main = k.CreateReserve(v.Container, "viewer-main", label.Public())
	if err := k.Graph.Transfer(ownerPriv, src, v.Main, 100*units.Joule); err != nil {
		return nil, err
	}
	v.Downloader = k.CreateReserve(v.Container, "viewer-downloader", label.Public())
	var err error
	v.Tap, err = k.CreateTap(v.Container, "viewer-tap", ownerPriv, src, v.Downloader, label.Public())
	if err != nil {
		return nil, err
	}
	if err := v.Tap.SetRate(ownerPriv, cfg.TapRate); err != nil {
		return nil, err
	}
	v.LevelTrace = trace.NewSeries("downloader-reserve", "µJ")
	k.Sched.NewThread(v.Container, "downloader", label.Public(), label.Priv{},
		sched.RunnerFunc(v.step), v.Main)
	v.startImage()
	// Sample the reserve level once a second for the figure.
	k.Eng.Every("viewer:sample", units.Second, func(e *sim.Engine) {
		if v.FinishedAt == 0 {
			lvl, _ := v.Downloader.Level(label.Priv{})
			v.LevelTrace.Add(e.Now(), int64(lvl))
		}
	})
	return v, nil
}

// startImage initializes the next image's state, choosing quality.
func (v *ImageViewer) startImage() {
	quality := 100
	if v.cfg.Adaptive {
		quality = v.chooseQuality()
	}
	v.imgQuality = quality
	v.imgBytes = v.cfg.FullImageBytes * int64(quality) / 100
	v.remaining = v.imgBytes
}

// chooseQuality implements the §5.3 policy: a dropping reserve level
// signals the downloader is outspending its tap, so it requests less
// data. Quality scales with the level relative to a full image's cost.
func (v *ImageViewer) chooseQuality() int {
	lvl, err := v.Downloader.Level(label.Priv{})
	if err != nil {
		return v.cfg.MinQualityPct
	}
	fullCost := v.perByteCost(v.cfg.FullImageBytes)
	if fullCost <= 0 {
		return 100
	}
	q := int(int64(lvl) * 100 / int64(fullCost))
	if lvl < v.cfg.LowWaterMark {
		q = q * int(int64(lvl)*100/int64(v.cfg.LowWaterMark)) / 100
	}
	if q > 100 {
		q = 100
	}
	if q < v.cfg.MinQualityPct {
		q = v.cfg.MinQualityPct
	}
	return q
}

// step advances the downloader state machine one scheduled tick.
func (v *ImageViewer) step(now units.Time, th *sched.Thread) {
	if v.FinishedAt != 0 {
		th.Exit()
		return
	}
	if v.pauseUntil != 0 {
		if now < v.pauseUntil {
			th.Sleep(v.pauseUntil)
			return
		}
		v.pauseUntil = 0
		v.startImage()
	}
	chunk := v.cfg.ChunkBytes
	if chunk > v.remaining {
		chunk = v.remaining
	}
	cost := v.perByteCost(chunk)
	if err := v.Downloader.Consume(label.Priv{}, cost); err != nil {
		// Out of energy: stall and retry, the Fig. 10 behaviour
		// ("image transfers stalling until enough energy is
		// available").
		if v.lastStallFrom == 0 {
			v.lastStallFrom = now
		}
		th.Sleep(now + 200*units.Millisecond)
		return
	}
	if v.lastStallFrom != 0 {
		v.StalledTime += now - v.lastStallFrom
		v.lastStallFrom = 0
	}
	v.remaining -= chunk
	transferT := units.Time(chunk * 1000 / v.cfg.Bandwidth)
	if v.remaining > 0 {
		th.Sleep(now + transferT)
		return
	}
	// Image complete.
	v.Images = append(v.Images, ImageRecord{
		Index:      len(v.Images),
		Batch:      v.batch,
		Bytes:      v.imgBytes,
		QualityPct: v.imgQuality,
		DoneAt:     now + transferT,
	})
	v.img++
	if v.img < v.cfg.ImagesPerBatch {
		v.startImage()
		th.Sleep(now + transferT)
		return
	}
	// Batch complete: pause, shrinking 5 s each time.
	v.img = 0
	v.batch++
	if v.batch >= v.cfg.Batches {
		v.FinishedAt = now + transferT
		th.Exit()
		return
	}
	pause := v.cfg.FirstPause - units.Time(v.batch-1)*v.cfg.PauseStep
	if pause < v.cfg.PauseStep {
		pause = v.cfg.PauseStep
	}
	v.pauseUntil = now + transferT + pause
	th.Sleep(v.pauseUntil)
}

// TotalBytes returns the bytes transferred across all images.
func (v *ImageViewer) TotalBytes() int64 {
	var n int64
	for _, im := range v.Images {
		n += im.Bytes
	}
	return n
}
