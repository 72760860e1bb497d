// operations is a day-in-the-life tour of AutoGlobe's operator surface:
// the controller runs in semi-automatic mode, so decisions wait for a
// human; a security guard decides who may confirm them and audits every
// attempt; and a failing binding layer shows the transactional executor
// rolling an action back cleanly.
//
//	go run ./examples/operations
package main

import (
	"errors"
	"fmt"
	"log"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/security"
	"autoglobe/internal/service"
)

func main() {
	// Landscape: two blades and a strong server, one interactive service.
	cl := cluster.MustNew(
		cluster.Host{Name: "blade1", Category: "blade", PerformanceIndex: 1, CPUs: 1,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 2048, SwapMB: 2048, TempMB: 20480},
		cluster.Host{Name: "blade2", Category: "blade", PerformanceIndex: 2, CPUs: 2,
			ClockMHz: 933, CacheKB: 512, MemoryMB: 4096, SwapMB: 4096, TempMB: 20480},
		cluster.Host{Name: "big1", Category: "server", PerformanceIndex: 9, CPUs: 4,
			ClockMHz: 2800, CacheKB: 2048, MemoryMB: 12288, SwapMB: 12288, TempMB: 20480},
	)
	allowed := map[service.Action]bool{}
	for _, a := range service.Actions() {
		allowed[a] = true
	}
	cat := service.MustCatalog(&service.Service{
		Name: "orders", Type: service.TypeInteractive, MinInstances: 1,
		Allowed: allowed, MemoryMBPerInstance: 1024, UsersPerUnit: 150, RequestWeight: 1,
	})
	dep := service.NewDeployment(cl, cat)
	inst, err := dep.Start("orders", "blade1")
	if err != nil {
		log.Fatal(err)
	}
	inst.Users = 140

	inner := controller.NewDeploymentExecutor(dep, controller.RebalanceUsers)

	// Controller in semi-automatic mode behind the security console.
	arch := archive.New(0)
	ctl, err := controller.New(controller.Config{Mode: controller.SemiAutomatic}, dep, arch, inner)
	if err != nil {
		log.Fatal(err)
	}
	guard := security.NewGuard()
	guard.Register(security.Principal{Name: "vera", Roles: []security.Role{security.RoleViewer}})
	guard.Register(security.Principal{Name: "olive", Roles: []security.Role{security.RoleOperator}})
	console, err := security.NewConsole(guard, ctl)
	if err != nil {
		log.Fatal(err)
	}

	// A sustained overload is confirmed; the controller proposes a
	// remedy but waits for confirmation.
	for m := 0; m <= 10; m++ {
		arch.Record(archive.HostEntity("blade1"), archive.Sample{Minute: m, CPU: 0.92, Mem: 0.5})
		arch.Record(archive.HostEntity("blade2"), archive.Sample{Minute: m, CPU: 0.15, Mem: 0.2})
		arch.Record(archive.HostEntity("big1"), archive.Sample{Minute: m, CPU: 0.05, Mem: 0.2})
		arch.Record(archive.InstanceEntity(inst.ID), archive.Sample{Minute: m, CPU: 0.9})
		arch.Record(archive.ServiceEntity("orders"), archive.Sample{Minute: m, CPU: 0.55})
	}
	if _, err := ctl.HandleTrigger(monitor.Trigger{
		Kind: monitor.ServiceOverloaded, Entity: "orders",
		Minute: 10, WatchedFrom: 0, AvgLoad: 0.9,
	}); err != nil {
		log.Fatal(err)
	}
	pending, _ := console.Pending("vera")
	fmt.Printf("pending decision: %s\n", pending[0])
	fmt.Println("why the controller proposes it:")
	fmt.Println(pending[0].Explain())

	// The viewer may look but not touch.
	if _, err := console.Approve("vera", 0); err != nil {
		fmt.Printf("vera tries to approve: %v\n", err)
	}
	// The operator confirms; the action executes through the
	// transactional executor.
	d, err := console.Approve("olive", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("olive approves: %s executed\n", d)
	moved, _ := dep.Instance(inst.ID)

	// Later, the binding layer has an outage: the transactional
	// executor rolls the whole action back instead of leaving the
	// landscape half-administered.
	inner.PostStep = func(*controller.Decision) error {
		return errors.New("binding layer outage")
	}
	hostBefore := moved.Host
	err = inner.Execute(&controller.Decision{
		Trigger: monitor.Trigger{Minute: 60}, Action: service.ActionScaleDown,
		Service: "orders", InstanceID: inst.ID, TargetHost: "blade2", SourceHost: hostBefore,
	})
	fmt.Printf("scale-down during outage: %v\n", err)
	now, _ := dep.Instance(inst.ID)
	fmt.Printf("instance still on %s, landscape consistent: %v\n", now.Host, dep.Validate() == nil)

	// The audit trail remembers everything.
	fmt.Println("audit trail:")
	for _, e := range guard.Audit() {
		fmt.Printf("  %s\n", e)
	}
}
