// Cluster volume vault: a mirrored logical volume over two real v3d
// servers, surviving the loss of one — the paper's "V3 volumes can span
// multiple V3 nodes using combinations of RAID" carried onto the TCP
// path. The walkthrough writes through the mirror, kills one backend
// mid-flight, keeps serving degraded, restarts the backend with its old
// (stale) data, waits for the background resync to replay the dirty
// extents, and proves both replicas byte-identical. A short striped run
// closes with the RAID-0 throughput side of the same spanning layer.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/vvault"
)

const member = 8 << 20 // 8 MB per backend

// startBackend serves one volume (backed by store) on addr; ":0" picks a
// port. Returning the server lets the walkthrough kill and restart it.
func startBackend(store netv3.BlockStore, addr string) (*netv3.Server, string) {
	srv := netv3.NewServer(netv3.DefaultServerConfig())
	srv.AddVolume(1, store)
	a, err := srv.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	return srv, a.String()
}

func main() {
	// Two backends, each holding one full replica. The stores outlive the
	// servers, like a v3d restarting over the same disk image.
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	srvA, addrA := startBackend(storeA, "127.0.0.1:0")
	defer srvA.Close()
	srvB, addrB := startBackend(storeB, "127.0.0.1:0")

	cfg := vvault.DefaultConfig(vvault.ModeMirror)
	cfg.MemberSize = member
	cfg.ProbeInterval = 50 * time.Millisecond
	cfg.ProbeTimeout = time.Second
	cfg.Client.ReconnectBackoff = 20 * time.Millisecond
	cfg.Client.MaxReconnects = 1
	cfg.Logger = log.New(os.Stderr, "", log.Ltime)
	v, err := vvault.Open([]string{addrA, addrB}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()

	// Healthy writes fan out to both replicas.
	block := func(i int, gen byte) []byte {
		return bytes.Repeat([]byte{byte(i) ^ gen}, 8192)
	}
	for i := 0; i < 64; i++ {
		if err := v.Write(int64(i)*8192, block(i, 1)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("mirror healthy: 64 blocks written to both replicas")

	// Kill backend B while a writer keeps going; the vault routes around
	// it and logs what B misses.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			if err := v.Write(int64(i)*8192, block(i, 2)); err != nil {
				log.Fatalf("write during outage: %v", err)
			}
		}
	}()
	srvB.Close()
	wg.Wait()
	for v.Status()[1].State != "down" {
		time.Sleep(10 * time.Millisecond)
	}
	got := make([]byte, 8192)
	if err := v.Read(0, got); err != nil {
		log.Fatalf("degraded read: %v", err)
	}
	st := v.Status()[1]
	fmt.Printf("backend B killed: vault degraded, reads served by A, %d dirty bytes logged for B\n",
		st.DirtyBytes)

	// Restart B on the same address over the same (now stale) store. The
	// probe loop notices, the resync worker replays the dirty extents,
	// and B serves reads again.
	srvB2, _ := startBackend(storeB, addrB)
	defer srvB2.Close()
	for v.Status()[1].State != "up" {
		time.Sleep(10 * time.Millisecond)
	}
	if err := v.Flush(); err != nil {
		log.Fatal(err)
	}
	stats := v.Stats()
	fmt.Printf("backend B restarted: resync replayed %d bytes, replica serving reads again\n",
		stats.ResyncedBytes)

	// Proof: both replicas byte-identical, holding the generation-2 data.
	bufA, bufB := make([]byte, member), make([]byte, member)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		log.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		log.Fatal("replicas diverged")
	}
	if !bytes.Equal(bufA[:8192], block(0, 2)) {
		log.Fatal("replica holds stale generation")
	}
	fmt.Println("verified: both replicas byte-identical after resync")

	// --- Striping: the throughput side of the spanning layer. ---
	srvC, addrC := startBackend(netv3.NewMemStore(member), "127.0.0.1:0")
	defer srvC.Close()
	srvD, addrD := startBackend(netv3.NewMemStore(member), "127.0.0.1:0")
	defer srvD.Close()
	scfg := vvault.DefaultConfig(vvault.ModeStripe)
	scfg.MemberSize = member
	scfg.StripeSize = 8192
	sv, err := vvault.Open([]string{addrC, addrD}, scfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sv.Close()
	const n, size = 4096, 8192
	var sw sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 8; g++ {
		sw.Add(1)
		go func(g int) {
			defer sw.Done()
			buf := make([]byte, size)
			for i := g; i < n; i += 8 {
				if err := sv.Read(int64(i%1024)*size, buf); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	sw.Wait()
	el := time.Since(t0)
	fmt.Printf("stripe over 2 backends: %d reads of %d bytes in %v (%.0f MB/s)\n",
		n, size, el.Round(time.Millisecond), float64(n)*size/el.Seconds()/1e6)
}
