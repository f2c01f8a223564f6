// phone demonstrates the §7 two-core substrate: the closed ARM9
// baseband behind the smdd daemon's gates (Fig. 16), driven by an
// energy-aware dialer, an SMS sender billed per message, and a GPS
// session billed to the thread that started it.
package main

import (
	"fmt"
	"log"

	cinder "repro"
	"repro/internal/apps"
	"repro/internal/msm"
	"repro/internal/sched"
	"repro/internal/sim"
)

func main() {
	sys, err := cinder.NewSystem(cinder.Options{DisableDecay: true})
	if err != nil {
		log.Fatal(err)
	}
	k := sys.Kernel
	smdd, err := msm.NewSmdd(k, msm.DefaultSmddConfig(), msm.DefaultARM9Config())
	if err != nil {
		log.Fatal(err)
	}
	smdd.OnIncomingSMS(func(body string) {
		fmt.Printf("  [%v] incoming SMS: %q\n", k.Now(), body)
	})

	// An energy-aware dialer: checks the battery gate, places a 15 s
	// call, hangs up. The call's ≈800 mW lands on the dialer's reserve.
	dialer, err := apps.NewDialer(k, k.Root, k.KernelPriv(), sys.Battery(), apps.DialerConfig{
		Number:        "+15551234567",
		Duration:      15 * cinder.Second,
		Rate:          cinder.Watt,
		MinBatteryPct: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A messaging app sends one SMS (2 J, all-or-nothing).
	smsRes := k.CreateReserve(k.Root, "messenger", cinder.PublicLabel())
	if err := k.Graph.Transfer(k.KernelPriv(), sys.Battery(), smsRes, cinder.Joules(5)); err != nil {
		log.Fatal(err)
	}
	k.Spawn(k.Root, "messenger", cinder.NoPrivileges(), sched.RunnerFunc(
		func(now cinder.Time, th *sched.Thread) {
			_, err := k.GateCall(msm.GateSMS, th, msm.SMSRequest{
				Body: "running late, start without me",
				OnSent: func(at cinder.Time) {
					fmt.Printf("  [%v] SMS confirmed by baseband\n", at)
				},
			})
			if err != nil {
				fmt.Println("  SMS refused:", err)
			}
			th.Exit()
		}), smsRes)

	// A navigation app runs GPS for 30 s.
	gpsRes := k.CreateReserve(k.Root, "nav", cinder.PublicLabel())
	if err := k.Graph.Transfer(k.KernelPriv(), sys.Battery(), gpsRes, cinder.Joules(20)); err != nil {
		log.Fatal(err)
	}
	fixes := 0
	k.Spawn(k.Root, "nav", cinder.NoPrivileges(), sched.RunnerFunc(
		func(now cinder.Time, th *sched.Thread) {
			switch {
			case now < cinder.Second:
				if _, err := k.GateCall(msm.GateGPS, th, msm.GPSRequest{
					Start: true,
					OnFix: func(at cinder.Time) { fixes++ },
				}); err != nil {
					fmt.Println("  GPS refused:", err)
					th.Exit()
					return
				}
				th.Sleep(30 * cinder.Second)
			default:
				_, _ = k.GateCall(msm.GateGPS, th, msm.GPSRequest{Start: false})
				th.Exit()
			}
		}), gpsRes)

	// The network injects a message mid-run.
	k.Eng.After(10*cinder.Second, func(_ *sim.Engine) {
		smdd.ARM9().InjectIncomingSMS("on my way")
	})

	sys.Run(45 * cinder.Second)

	fmt.Println("\nafter 45 simulated seconds:")
	fmt.Printf("  dialer: battery read %d%%, refused=%v, hung up at %v\n",
		dialer.LastBatteryPct, dialer.Refused, dialer.HungUpAt)
	dst, _ := dialer.Reserve.Stats(cinder.NoPrivileges())
	fmt.Printf("  dialer billed:    %v (≈800 mW × call time)\n", dst.Consumed)
	sst, _ := smsRes.Stats(cinder.NoPrivileges())
	fmt.Printf("  messenger billed: %v (2 J per SMS)\n", sst.Consumed)
	gst, _ := gpsRes.Stats(cinder.NoPrivileges())
	fmt.Printf("  nav billed:       %v for %d GPS fixes\n", gst.Consumed, fixes)
	st := smdd.Stats()
	fmt.Printf("  smdd stats:       %d SMS sent, %d calls placed\n", st.SMSSent, st.CallsPlaced)
}
