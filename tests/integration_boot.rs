//! Boot-level integration: the assembled system comes up, idles, ticks,
//! and respects its cache geometry.

use vpp::cache_kernel::{CkConfig, SpaceDesc, ThreadDesc};
use vpp::srm::Srm;
use vpp::{boot_node, BootConfig};

#[test]
fn boot_and_idle() {
    let (mut ex, srm_id) = boot_node(BootConfig::default());
    assert_eq!(ex.ck.first_kernel(), srm_id);
    // Nothing to run, but time passes and the clock device fires.
    ex.run(500);
    assert!(ex.mpm.clock.cycles() > 0, "idle CPUs still advance time");
    assert!(ex.mpm.clockdev.ticks > 0, "interval clock fired");
}

#[test]
fn occupancy_reflects_table1_geometry() {
    let (ex, _) = boot_node(BootConfig::default());
    let occ = ex.ck.occupancy();
    assert_eq!(occ[0], (1, 16), "one kernel (SRM) of 16 slots");
    assert_eq!(occ[1], (0, 64), "64 address-space slots");
    assert_eq!(occ[2], (0, 256), "256 thread slots");
    assert_eq!(occ[3], (0, 65_536), "65536 mapping descriptors");
}

#[test]
fn custom_geometry_respected() {
    let (mut ex, srm_id) = boot_node(BootConfig {
        ck: CkConfig {
            kernel_slots: 4,
            space_slots: 2,
            thread_slots: 3,
            mapping_capacity: 16,
            ..CkConfig::default()
        },
        ..BootConfig::default()
    });
    // Load up to the space capacity; the third load displaces one.
    let s1 = ex
        .ck
        .load_space(srm_id, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    let _s2 = ex
        .ck
        .load_space(srm_id, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    let _s3 = ex
        .ck
        .load_space(srm_id, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    assert_eq!(ex.ck.occupancy()[1].0, 2);
    assert!(ex.ck.space(s1).is_err(), "oldest space displaced");
}

#[test]
fn srm_survives_churn() {
    let (mut ex, srm_id) = boot_node(BootConfig {
        ck: CkConfig {
            kernel_slots: 2,
            ..CkConfig::default()
        },
        ..BootConfig::default()
    });
    // Start kernels until the 2-slot cache has displaced several; the
    // locked first kernel must never be the victim.
    for i in 0..5 {
        let name = format!("k{i}");
        ex.with_kernel::<Srm, _>(srm_id, |s, env| {
            s.start_kernel(env, &name, 1, [10; 8], 10, Default::default())
                .unwrap()
        })
        .unwrap();
        ex.pump_events();
    }
    assert!(ex.ck.kernel(srm_id).is_ok(), "first kernel never displaced");
    let saved = ex
        .with_kernel::<Srm, _>(srm_id, |s, _| s.stats.kernel_writebacks)
        .unwrap();
    assert_eq!(saved, 4, "four kernels written back to the SRM");
}

#[test]
fn thread_lifecycle_through_executive() {
    let (mut ex, srm_id) = boot_node(BootConfig::default());
    let sp = ex
        .ck
        .load_space(srm_id, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    let pc = ex
        .code
        .register(Box::new(vpp::cache_kernel::Script::new(vec![
            vpp::cache_kernel::Step::Compute(100),
            vpp::cache_kernel::Step::Yield,
            vpp::cache_kernel::Step::Compute(100),
            vpp::cache_kernel::Step::Exit(3),
        ])));
    let t = ex
        .ck
        .load_thread(srm_id, ThreadDesc::new(sp, pc, 10), false, &mut ex.mpm)
        .unwrap();
    ex.run_until_idle(100);
    assert!(ex.ck.thread(t).is_err(), "thread exited and was unloaded");
    assert_eq!(ex.code.len(), 0, "program reclaimed");
}
