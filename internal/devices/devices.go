// Package devices implements a synthetic substitute for the GSMA TAC
// device catalog used in §2.2 of the paper. A Type Allocation Code (TAC)
// is the first 8 digits of a device IMEI and is statically allocated to a
// device vendor and model; the paper joins signalling events against the
// catalog to keep only smartphones (primary personal devices), dropping
// Machine-to-Machine (M2M) devices such as smart meters and trackers.
//
// The package also models SIM identity (MCC/MNC) so that the paper's
// second filter — dropping international inbound roamers and keeping the
// MNO's native subscribers — can be exercised.
package devices

import (
	"fmt"

	"repro/internal/rng"
)

// Class is the coarse device classification the paper's analysis needs.
type Class int

// Device classes.
const (
	ClassSmartphone Class = iota
	ClassFeaturePhone
	ClassM2M    // smart sensors, meters, trackers, telematics
	ClassRouter // MiFi/home routers on cellular
	NumClasses  = int(ClassRouter) + 1
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSmartphone:
		return "smartphone"
	case ClassFeaturePhone:
		return "feature-phone"
	case ClassM2M:
		return "m2m"
	case ClassRouter:
		return "router"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// TAC is a Type Allocation Code: the first 8 digits of an IMEI.
type TAC uint32

// Entry is one catalog record, mirroring the fields §2.2 lists
// (manufacturer, brand/model, operating system, radio capability).
type Entry struct {
	TAC          TAC
	Manufacturer string
	Model        string
	OS           string
	Class        Class
	LTECapable   bool
}

// Catalog maps TACs to device metadata.
type Catalog struct {
	entries map[TAC]Entry
	byClass [NumClasses][]TAC

	// Draw tables, fixed by NewCatalog so the vendor draws allocate
	// nothing: the popularity of every vendor (vendorSpecs order) and its
	// entries in allocation order, and the same for the smartphone
	// vendors alone.
	vendorWeights []float64
	vendorModels  [][]Entry
	phoneWeights  []float64
	phoneModels   [][]Entry
}

// vendorSpec seeds the synthetic catalog.
type vendorSpec struct {
	manufacturer string
	os           string
	class        Class
	models       int
	lte          bool
	// popularity is the relative share of this vendor's devices in the
	// subscriber population; used by AssignDevice.
	popularity float64
}

var vendorSpecs = []vendorSpec{
	{"Fruitphone", "iOS-like", ClassSmartphone, 24, true, 0.34},
	{"Galaxia", "Android-like", ClassSmartphone, 30, true, 0.30},
	{"Pixelworks", "Android-like", ClassSmartphone, 12, true, 0.08},
	{"Huaxia", "Android-like", ClassSmartphone, 18, true, 0.12},
	{"BudgetFone", "Android-like", ClassSmartphone, 16, true, 0.06},
	{"Classic Mobile", "proprietary", ClassFeaturePhone, 10, false, 0.03},
	{"MeterCorp", "rtos", ClassM2M, 14, false, 0.03},
	{"TrackIt", "rtos", ClassM2M, 10, true, 0.02},
	{"FleetSense", "rtos", ClassM2M, 8, true, 0.01},
	{"HomeLink", "linux", ClassRouter, 6, true, 0.01},
}

// NewCatalog builds the deterministic synthetic catalog. TACs are
// assigned from disjoint per-vendor ranges, like real GSMA allocations.
func NewCatalog() *Catalog {
	c := &Catalog{entries: make(map[TAC]Entry)}
	next := TAC(35_000_000) // plausible 8-digit space
	for _, v := range vendorSpecs {
		models := make([]Entry, 0, v.models)
		for i := 0; i < v.models; i++ {
			t := next
			next++
			e := Entry{
				TAC:          t,
				Manufacturer: v.manufacturer,
				Model:        fmt.Sprintf("%s-%02d", v.manufacturer, i+1),
				OS:           v.os,
				Class:        v.class,
				LTECapable:   v.lte,
			}
			c.entries[t] = e
			c.byClass[v.class] = append(c.byClass[v.class], t)
			models = append(models, e)
		}
		c.vendorWeights = append(c.vendorWeights, v.popularity)
		c.vendorModels = append(c.vendorModels, models)
		if v.class == ClassSmartphone {
			c.phoneWeights = append(c.phoneWeights, v.popularity)
			c.phoneModels = append(c.phoneModels, models)
		}
	}
	return c
}

// AssignDevice draws a device for a subscriber: a vendor weighted by
// popularity, then a uniform model of that vendor. The result is
// deterministic in the source's state.
func (c *Catalog) AssignDevice(src *rng.Source) Entry {
	models := c.vendorModels[src.Pick(c.vendorWeights)]
	return models[src.Intn(len(models))]
}

// AssignSmartphone draws a smartphone for a primary-device subscriber:
// a smartphone vendor weighted by popularity, then a uniform model.
func (c *Catalog) AssignSmartphone(src *rng.Source) Entry {
	models := c.phoneModels[src.Pick(c.phoneWeights)]
	return models[src.Intn(len(models))]
}

// AssignM2MDevice draws an M2M device (for the non-smartphone population
// the signalling filter must reject).
func (c *Catalog) AssignM2MDevice(src *rng.Source) Entry {
	tacs := c.byClass[ClassM2M]
	return c.entries[tacs[src.Intn(len(tacs))]]
}

// PLMN identifies a mobile network by Mobile Country Code and Mobile
// Network Code, as carried in every signalling event (§2.2).
type PLMN struct {
	MCC uint16
	MNC uint16
}

// Network identities used by the simulator.
var (
	// HomePLMN is the studied UK MNO.
	HomePLMN = PLMN{MCC: 234, MNC: 10}
	// Foreign PLMNs observed as inbound roamers.
	foreignPLMNs = []PLMN{
		{MCC: 208, MNC: 1},   // France
		{MCC: 262, MNC: 2},   // Germany
		{MCC: 214, MNC: 7},   // Spain
		{MCC: 310, MNC: 260}, // USA
		{MCC: 222, MNC: 10},  // Italy
	}
)

// String implements fmt.Stringer ("234-10").
func (p PLMN) String() string { return fmt.Sprintf("%d-%d", p.MCC, p.MNC) }

// RoamerPLMN draws a foreign PLMN for an inbound roamer.
func RoamerPLMN(src *rng.Source) PLMN {
	return foreignPLMNs[src.Intn(len(foreignPLMNs))]
}
