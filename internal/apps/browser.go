package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/units"
)

// Browser models the links2-based browser of §5.2: it has its own
// rate-limited reserve, runs an extension/plugin in a separate process
// whose energy is subdivided from the browser's, and can attach
// per-page taps that are revoked when the page's container is deleted.
//
// With reclamation enabled it adds the Fig. 6b backward proportional
// taps (0.1×/s) so that energy unused by either party drains back for
// others to use.
type Browser struct {
	k    *kernel.Kernel
	cat  label.Category
	priv label.Priv

	Container *kobj.Container
	Reserve   *core.Reserve
	Tap       *core.Tap
	Thread    *sched.Thread

	Plugin *Plugin

	pages map[string]*kobj.Container // open pages' containers, by name
}

// Plugin is the browser's extension process.
type Plugin struct {
	Container *kobj.Container
	Reserve   *core.Reserve
	Tap       *core.Tap
	BackTap   *core.Tap // nil without reclamation
	Thread    *sched.Thread
	// Unresponsive counts requests the plugin could not serve for lack
	// of energy — the case where "the browser can display the
	// unaugmented page" (§5.2).
	Unresponsive int64
}

// BrowserConfig parameterizes NewBrowser.
type BrowserConfig struct {
	// Rate is the browser's tap from the battery. Fig. 6 uses ≈690 mW
	// ("configured to run for at least 6 hours on a 15 kJ battery").
	Rate units.Power
	// PluginRate is the plugin tap from the browser's reserve (70 mW in
	// Fig. 6b, "cannot use more than 10% of its energy" in Fig. 6a).
	PluginRate units.Power
	// Reclaim adds the Fig. 6b backward proportional taps at
	// ReclaimFrac (default 0.1×/s).
	Reclaim     bool
	ReclaimFrac core.PPM
}

// NewBrowser builds the browser process tree. ownerPriv must be able to
// use src (the battery or an energywrap reserve).
func NewBrowser(k *kernel.Kernel, parent *kobj.Container, ownerPriv label.Priv, src *core.Reserve, cfg BrowserConfig) (*Browser, error) {
	if cfg.ReclaimFrac == 0 {
		cfg.ReclaimFrac = 100_000 // 0.1×/s
	}
	b := &Browser{k: k, pages: make(map[string]*kobj.Container)}
	b.cat = k.NewCategory()
	b.priv = label.NewPriv(b.cat)
	tapLbl := label.Public().With(b.cat, label.Level2)

	b.Container = kobj.NewContainer(k.Table, parent, label.Public())
	b.Reserve = k.CreateReserve(b.Container, "browser-reserve", label.Public())
	var err error
	b.Tap, err = k.CreateTap(b.Container, "browser-tap", ownerPriv, src, b.Reserve, tapLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: browser: %w", err)
	}
	if err := b.Tap.SetRate(ownerPriv.Union(b.priv), cfg.Rate); err != nil {
		return nil, fmt.Errorf("apps: browser: %w", err)
	}
	b.Thread = k.Sched.NewThread(b.Container, "browser", label.Public(), b.priv, nil, b.Reserve)

	// The plugin: a separate process whose reserve is fed from the
	// browser's own reserve by a low-rate tap the plugin cannot modify
	// (Fig. 6a).
	p := &Plugin{}
	p.Container = kobj.NewContainer(k.Table, b.Container, label.Public())
	p.Reserve = k.CreateReserve(p.Container, "plugin-reserve", label.Public())
	p.Tap, err = k.CreateTap(p.Container, "plugin-tap", b.priv, b.Reserve, p.Reserve, tapLbl)
	if err != nil {
		return nil, fmt.Errorf("apps: plugin: %w", err)
	}
	if err := p.Tap.SetRate(b.priv, cfg.PluginRate); err != nil {
		return nil, fmt.Errorf("apps: plugin: %w", err)
	}
	p.Thread = k.Sched.NewThread(p.Container, "plugin", label.Public(), label.Priv{}, nil, p.Reserve)

	if cfg.Reclaim {
		// Fig. 6b: plugin unused energy drains back to the browser, and
		// browser unused energy drains back to the battery — both need
		// privileges over the respective endpoints, which the creator
		// (browser / wrapper) holds.
		p.BackTap, err = k.CreateTap(p.Container, "plugin-backtap", b.priv, p.Reserve, b.Reserve, tapLbl)
		if err != nil {
			return nil, fmt.Errorf("apps: plugin backtap: %w", err)
		}
		if err := p.BackTap.SetFrac(b.priv, cfg.ReclaimFrac); err != nil {
			return nil, err
		}
		browserBack, err := k.CreateTap(b.Container, "browser-backtap", ownerPriv, b.Reserve, src, tapLbl)
		if err != nil {
			return nil, fmt.Errorf("apps: browser backtap: %w", err)
		}
		if err := browserBack.SetFrac(ownerPriv.Union(b.priv), cfg.ReclaimFrac); err != nil {
			return nil, err
		}
	}
	b.Plugin = p
	return b, nil
}

// Priv returns the browser's privilege set (owns its tap category).
func (b *Browser) Priv() label.Priv { return b.priv }

// OpenPage adds a per-page tap feeding the plugin, scaling the plugin's
// power with the number of pages it serves (§5.2: "the browser can add
// a tap per page"). The tap lives in a page container so that closing
// the page revokes it automatically.
func (b *Browser) OpenPage(name string, rate units.Power) error {
	if _, dup := b.pages[name]; dup {
		return fmt.Errorf("apps: page %q already open", name)
	}
	c := kobj.NewContainer(b.k.Table, b.Container, label.Public())
	tap, err := b.k.CreateTap(c, "page-tap-"+name, b.priv, b.Reserve, b.Plugin.Reserve,
		label.Public().With(b.cat, label.Level2))
	if err != nil {
		return fmt.Errorf("apps: page %q: %w", name, err)
	}
	if err := tap.SetRate(b.priv, rate); err != nil {
		return err
	}
	b.pages[name] = c
	return nil
}

// ClosePage deletes the page container; kernel GC revokes its tap,
// "effectively revoking those power sources" (§5.2).
func (b *Browser) ClosePage(name string) error {
	c, ok := b.pages[name]
	if !ok {
		return fmt.Errorf("apps: page %q not open", name)
	}
	delete(b.pages, name)
	return b.k.Table.Delete(c.ObjectID())
}

// OpenPages returns the number of live per-page taps.
func (b *Browser) OpenPages() int { return len(b.pages) }

// AskExtension models the browser sending a request to the extension
// process: the plugin must pay reqCost from its reserve to answer. If
// it cannot — it is "unresponsive due to lack of energy" — the browser
// proceeds with the unaugmented page and the failure is counted.
func (b *Browser) AskExtension(reqCost units.Energy) bool {
	if err := b.Plugin.Reserve.Consume(label.Priv{}, reqCost); err != nil {
		b.Plugin.Unresponsive++
		return false
	}
	return true
}
