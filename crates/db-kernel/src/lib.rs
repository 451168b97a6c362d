//! Database server application kernel (§1, §3).
//!
//! "A database server can be implemented directly on top of the Cache
//! Kernel to allow careful management of physical memory for caching,
//! optimizing page replacement to minimize the query processing costs."
//! And the §1 motivation: "the standard page-replacement policies of
//! UNIX-like operating systems perform poorly for applications with
//! random or sequential access" — which is exactly what this kernel
//! demonstrates: the same buffer pool under FIFO/LRU (fixed OS-style
//! policies) versus MRU and a scan-resistant policy only the application
//! could know to use.

use cache_kernel::{
    AppKernel, CacheKernel, CkResult, Env, FaultDisposition, ObjId, SpaceDesc, TrapDisposition,
    Writeback,
};
use hw::{Fault, Mpm, Pte, Vaddr, PAGE_SIZE};
use libkern::{
    BackingStore, Fifo, FrameAllocator, Lru, Mru, PageList, Region, ReplacementPolicy, Segment,
    SegmentManager,
};

/// Virtual base of the table heap in the server's space.
pub const TABLE_BASE: Vaddr = Vaddr(0x2000_0000);
/// Segment id of the table.
const TABLE_SEGMENT: u32 = 1;

/// A buffer-pool replacement policy choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// First-in-first-out (a fixed OS-style default).
    Fifo,
    /// Least recently used (the other fixed default).
    Lru,
    /// Most recently used (optimal for cyclic scans).
    Mru,
    /// Scan-resistant two-queue policy (application knowledge: scans go
    /// through a probationary queue and cannot flush the hot set).
    ScanResistant,
}

impl Policy {
    /// Instantiate the policy object.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            Policy::Fifo => Box::<Fifo>::default(),
            Policy::Lru => Box::<Lru>::default(),
            Policy::Mru => Box::<Mru>::default(),
            Policy::ScanResistant => Box::<ScanResistant>::default(),
        }
    }
    /// All policies, for sweeps.
    pub fn all() -> [Policy; 4] {
        [
            Policy::Fifo,
            Policy::Lru,
            Policy::Mru,
            Policy::ScanResistant,
        ]
    }
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Lru => "lru",
            Policy::Mru => "mru",
            Policy::ScanResistant => "scan-resistant (app)",
        }
    }
}

/// A 2Q-style scan-resistant policy: pages enter a probationary FIFO;
/// only a second touch promotes them to the protected LRU. Sequential
/// scans never get promoted and therefore cannot evict the hot set.
#[derive(Default)]
pub struct ScanResistant {
    queues: PageList<2>,
}

const PROBATION: usize = 0;
const PROTECTED: usize = 1;

impl ReplacementPolicy for ScanResistant {
    fn inserted(&mut self, page: Vaddr) {
        self.queues.push_back(PROBATION, page);
    }
    fn touched(&mut self, page: Vaddr) {
        // From probation this is the promotion; within protected, the
        // LRU refresh.
        self.queues.move_to_back(PROTECTED, page);
    }
    fn victim(&mut self) -> Option<Vaddr> {
        // Prefer evicting probationary (scanned-once) pages.
        self.queues
            .front(PROBATION)
            .or_else(|| self.queues.front(PROTECTED))
    }
    fn removed(&mut self, page: Vaddr) {
        self.queues.remove(page);
    }
    fn name(&self) -> &'static str {
        "scan-resistant"
    }
}

/// One query operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbOp {
    /// Sequential scan of the whole table.
    Scan,
    /// Point lookup touching one page.
    Lookup(u32),
}

/// Results of running a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbRunStats {
    /// Page touches.
    pub touches: u64,
    /// Buffer-pool hits (no disk I/O).
    pub hits: u64,
    /// Pages read from disk.
    pub disk_reads: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
}

impl DbRunStats {
    /// Buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.touches.max(1) as f64
    }
}

/// The database server kernel.
pub struct DbKernel {
    /// Our kernel id.
    pub me: ObjId,
    /// Table size in pages.
    pub db_pages: u32,
    sm: SegmentManager,
    frames: FrameAllocator,
    disk: BackingStore,
    /// The server's address space.
    pub space: ObjId,
    /// Aggregate stats over all queries run.
    pub stats: DbRunStats,
}

impl DbKernel {
    /// Create the server: a space with the table region, a buffer pool of
    /// `cache_pages`, frames drawn from `frames`.
    pub fn create(
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        me: ObjId,
        db_pages: u32,
        cache_pages: usize,
        frames: core::ops::Range<u32>,
        policy: Policy,
    ) -> CkResult<Self> {
        // Server creation may race other kernels into a full space
        // cache: honor `Again` backpressure with a bounded retry
        // instead of failing the whole server.
        let space = libkern::retry(libkern::Backoff::default(), |wait| {
            mpm.clock.charge(u64::from(wait));
            ck.load_space(me, SpaceDesc::default(), mpm)
        })?;
        let mut sm = SegmentManager::new(space, cache_pages, policy.build());
        sm.add_segment(Segment {
            id: TABLE_SEGMENT,
            pages: db_pages,
        });
        sm.map_region(Region {
            base: TABLE_BASE,
            pages: db_pages,
            segment: TABLE_SEGMENT,
            seg_offset: 0,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
        let mut disk = BackingStore::new();
        // Materialize table pages on disk with a recognizable header.
        let seg = Segment {
            id: TABLE_SEGMENT,
            pages: db_pages,
        };
        for p in 0..db_pages {
            disk.seed(seg.key(p), &p.to_le_bytes());
        }
        Ok(DbKernel {
            me,
            db_pages,
            sm,
            frames: FrameAllocator::from_frames(frames),
            disk,
            space,
            stats: DbRunStats::default(),
        })
    }

    /// Address of table page `p`.
    pub fn page_addr(&self, p: u32) -> Vaddr {
        Vaddr(TABLE_BASE.0 + (p % self.db_pages) * PAGE_SIZE)
    }

    /// Touch one table page through the buffer pool, faulting it in from
    /// disk if absent. Returns whether it was a hit.
    pub fn touch(&mut self, ck: &mut CacheKernel, mpm: &mut Mpm, page: u32) -> CkResult<bool> {
        let va = self.page_addr(page);
        self.stats.touches += 1;
        let before = self.disk.reads;
        if self.sm.frame_of(va).is_some() {
            self.sm.policy.touched(va);
            self.stats.hits += 1;
            // A hot buffer access still costs a few cycles.
            mpm.clock.charge(mpm.config.cost.l2_miss);
            return Ok(true);
        }
        self.sm
            .handle_fault(self.me, ck, mpm, &mut self.frames, &mut self.disk, va, 0)?;
        self.stats.disk_reads += self.disk.reads - before;
        Ok(false)
    }

    /// Run a query stream, returning the stats delta.
    pub fn run(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        ops: &[DbOp],
    ) -> CkResult<DbRunStats> {
        let before = self.stats;
        let c0 = mpm.clock.cycles();
        for op in ops {
            match op {
                DbOp::Scan => {
                    for p in 0..self.db_pages {
                        self.touch(ck, mpm, p)?;
                    }
                }
                DbOp::Lookup(p) => {
                    self.touch(ck, mpm, *p)?;
                }
            }
        }
        Ok(DbRunStats {
            touches: self.stats.touches - before.touches,
            hits: self.stats.hits - before.hits,
            disk_reads: self.stats.disk_reads - before.disk_reads,
            cycles: mpm.clock.cycles() - c0,
        })
    }

    /// Resident buffer pages.
    pub fn resident(&self) -> usize {
        self.sm.resident()
    }
}

/// Stand-alone app-kernel wrapper so the server can live in an executive
/// (queries are driven through `Executive::with_kernel`).
pub struct DbServer {
    /// The server state (populated by `on_start` via `init`).
    pub db: Option<DbKernel>,
    /// Construction parameters.
    pub db_pages: u32,
    /// Buffer pool size.
    pub cache_pages: usize,
    /// Frame grant.
    pub frames: core::ops::Range<u32>,
    /// Replacement policy.
    pub policy: Policy,
}

impl AppKernel for DbServer {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_start(&mut self, env: &mut Env, id: ObjId) {
        self.db = DbKernel::create(
            env.ck,
            env.mpm,
            id,
            self.db_pages,
            self.cache_pages,
            self.frames.clone(),
            self.policy,
        )
        .ok();
    }
    fn on_page_fault(&mut self, _env: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
        FaultDisposition::Kill
    }
    fn on_trap(&mut self, _env: &mut Env, _t: ObjId, no: u32, _a: [u32; 4]) -> TrapDisposition {
        TrapDisposition::Return(no)
    }
    fn on_writeback(&mut self, _env: &mut Env, wb: Writeback) {
        if let (Some(db), Writeback::Mapping { vaddr, flags, .. }) = (self.db.as_mut(), &wb) {
            db.sm.on_mapping_writeback(*vaddr, *flags);
        }
    }
    fn name(&self) -> &str {
        "db-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_kernel::{CkConfig, KernelDesc, MemoryAccessArray};
    use hw::MachineConfig;

    fn setup(db_pages: u32, cache_pages: usize, policy: Policy) -> (CacheKernel, Mpm, DbKernel) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 2048,
            l2_bytes: 64 * 1024,
            ..MachineConfig::default()
        });
        let me = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let db = DbKernel::create(
            &mut ck,
            &mut mpm,
            me,
            db_pages,
            cache_pages,
            64..512,
            policy,
        )
        .unwrap();
        (ck, mpm, db)
    }

    #[test]
    fn repeated_lookups_hit_the_pool() {
        let (mut ck, mut mpm, mut db) = setup(16, 8, Policy::Lru);
        assert!(!db.touch(&mut ck, &mut mpm, 3).unwrap());
        assert!(db.touch(&mut ck, &mut mpm, 3).unwrap());
        assert_eq!(db.stats.disk_reads, 1);
        assert_eq!(db.resident(), 1);
    }

    #[test]
    fn pool_limit_enforced() {
        let (mut ck, mut mpm, mut db) = setup(32, 4, Policy::Lru);
        let r = db.run(&mut ck, &mut mpm, &[DbOp::Scan]).unwrap();
        assert_eq!(r.touches, 32);
        assert_eq!(r.disk_reads, 32);
        assert_eq!(db.resident(), 4);
    }

    #[test]
    fn mru_beats_lru_on_cyclic_scan() {
        // The canonical sequential-access pathology: repeated full scans
        // with a pool smaller than the table.
        let ops = [DbOp::Scan, DbOp::Scan, DbOp::Scan, DbOp::Scan];
        let run_with = |p: Policy| {
            let (mut ck, mut mpm, mut db) = setup(16, 8, p);
            db.run(&mut ck, &mut mpm, &ops).unwrap()
        };
        let lru = run_with(Policy::Lru);
        let mru = run_with(Policy::Mru);
        assert!(
            mru.disk_reads < lru.disk_reads,
            "MRU ({}) must beat LRU ({}) on cyclic scans",
            mru.disk_reads,
            lru.disk_reads
        );
        assert!(mru.cycles < lru.cycles, "fewer disk reads, fewer cycles");
    }

    #[test]
    fn scan_resistant_protects_hot_set_from_scans() {
        // Mixed workload: a hot set of 4 pages repeatedly probed, with
        // occasional full scans of a 64-page table through a 8-page pool.
        let mut ops = Vec::new();
        for round in 0..6 {
            for _ in 0..20 {
                for h in 0..4 {
                    ops.push(DbOp::Lookup(h));
                }
            }
            if round % 2 == 1 {
                ops.push(DbOp::Scan);
            }
        }
        let run_with = |p: Policy| {
            let (mut ck, mut mpm, mut db) = setup(64, 8, p);
            db.run(&mut ck, &mut mpm, &ops).unwrap()
        };
        let lru = run_with(Policy::Lru);
        let sr = run_with(Policy::ScanResistant);
        assert!(
            sr.disk_reads < lru.disk_reads,
            "scan-resistant ({}) must beat LRU ({}) when scans pollute",
            sr.disk_reads,
            lru.disk_reads
        );
        assert!(sr.hit_rate() > lru.hit_rate());
    }

    #[test]
    fn duplicate_insert_keeps_one_entry_in_its_queue() {
        let (a, b) = (Vaddr(0x1000), Vaddr(0xFFFF_F000));
        let mut p = ScanResistant::default();
        p.inserted(a);
        p.inserted(b);
        p.touched(a); // promoted
        p.inserted(a); // already held: stays protected, not back on probation
        assert_eq!(p.queues.len(), 2);
        p.queues.check().unwrap();
        assert_eq!(p.victim(), Some(b));
        p.removed(b);
        assert_eq!(p.victim(), Some(a));
        p.removed(a);
        assert_eq!(p.victim(), None);
        p.touched(a); // absent: harmless
        p.removed(a);
        assert!(p.queues.is_empty());
        p.queues.check().unwrap();
    }

    #[test]
    fn table_pages_round_trip_from_disk() {
        let (mut ck, mut mpm, mut db) = setup(8, 4, Policy::Lru);
        db.touch(&mut ck, &mut mpm, 5).unwrap();
        let frame = db.sm.frame_of(db.page_addr(5)).unwrap();
        assert_eq!(
            mpm.mem.read_u32(frame.base()).unwrap(),
            5,
            "page header intact"
        );
        let _ = ck;
    }
}
