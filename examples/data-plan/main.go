// data-plan demonstrates the paper's §9 future-work idea, implemented in
// internal/netquota: the reserve/tap graph metering a cellular data plan
// (bytes) and an SMS quota (messages) instead of energy. Isolation,
// delegation and subdivision carry over unchanged.
package main

import (
	"fmt"
	"log"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/netquota"
	"repro/internal/units"
)

func main() {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())

	// A 2 GiB monthly plan, protected by the plan owner's category.
	plan := netquota.NewPlan(tbl, root, netquota.PlanConfig{
		Quota:    2 * netquota.Gibibyte,
		Category: 42,
	})

	// Subdivision: the video app gets a 500 MiB grant; the background
	// sync daemon a 4 KiB/s trickle tap it cannot raise.
	video, err := plan.NewAllowance("video", 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Grant(video, 500*netquota.Mebibyte); err != nil {
		log.Fatal(err)
	}
	sync, err := plan.NewAllowance("sync", netquota.ByteRate(4*netquota.Kibibyte))
	if err != nil {
		log.Fatal(err)
	}

	// An hour passes; the trickle tap flows.
	plan.Flow(units.Hour)

	app := label.Priv{} // unprivileged application context

	// Isolation: the video app streams 300 MiB; the charge is admitted
	// against its own allowance only.
	if err := video.Charge(app, 300*netquota.Mebibyte); err != nil {
		log.Fatal(err)
	}
	// ...and a 400 MiB binge is refused all-or-nothing.
	if err := video.Charge(app, 400*netquota.Mebibyte); err != nil {
		fmt.Println("video refused:", err)
	}

	// Delegation: video lends sync 50 MiB for a large backup.
	if err := plan.Delegate(video, sync, 50*netquota.Mebibyte, app); err != nil {
		log.Fatal(err)
	}

	vLvl, _ := video.Level(app)
	sLvl, _ := sync.Level(app)
	rem, _ := plan.Remaining()
	fmt.Printf("video allowance: %d MiB left\n", vLvl/netquota.Mebibyte)
	fmt.Printf("sync allowance:  %d KiB (1 h of trickle + 50 MiB delegated)\n", sLvl/netquota.Kibibyte)
	fmt.Printf("plan pool:       %d MiB unallocated, %d MiB on the wire\n",
		rem/netquota.Mebibyte, plan.Used()/netquota.Mebibyte)

	// SMS quota: 100 messages/month, messenger gets 10.
	sms := netquota.NewSMSQuota(tbl, root, 100, 43)
	msgr, err := sms.NewAppAllowance("messenger", 10)
	if err != nil {
		log.Fatal(err)
	}
	sent := 0
	for i := 0; i < 12; i++ {
		if err := msgr.Send(app); err != nil {
			fmt.Printf("message %d refused: %v\n", i+1, err)
			break
		}
		sent++
	}
	fmt.Printf("messenger sent %d/12 attempts; pool has %d left\n", sent, func() netquota.Messages {
		r, _ := sms.Remaining()
		return r
	}())
}
