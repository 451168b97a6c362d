//! Capability scoping of the application-kernel boundary.
//!
//! The paper's §6 containment claim — a buggy application kernel cannot
//! corrupt other kernels — is only adversarially true if every operation
//! that names a physical page is checked against the calling kernel's
//! grant *at the boundary*, not just at mapping install. This module is
//! that boundary layer: one verdict helper used by `load_mapping` and
//! friends, an explicit check for the surfaces that historically trusted
//! their caller (writeback targets, grant modification), and the opaque
//! payload handle of metadata-only caching.
//!
//! Everything here is gated on [`CkConfig::caps_enforce`] and off by
//! default: with the knob down, the legacy error shapes
//! ([`CkError::NoAccess`], [`CkError::FirstKernelOnly`]) are returned
//! unchanged, no event is emitted, no counter moves, and the granted
//! fast path executes the exact pre-existing branch. With the knob up,
//! a violation becomes [`CkError::CapDenied`] — retryable when the
//! caller holds partial rights on the page group (a grant renegotiation
//! could fix it), fatal when the target is wholly outside the grant —
//! and is counted in [`Counters::cap_denied`](crate::Counters) and
//! traced as a [`KernelEvent::CapViolation`] through the executive
//! pipeline. Never a panic.
//!
//! The first kernel (the SRM) is exempt throughout: it boots with full
//! permissions on all physical resources (§3) and is the spill target
//! of last resort for redirected writebacks.
//!
//! [`CkConfig::caps_enforce`]: crate::ck::CkConfig::caps_enforce

use crate::ck::CacheKernel;
use crate::error::{CkError, CkResult};
use crate::events::{KernelEvent, Writeback};
use crate::ids::ObjId;
use hw::{Access, Mpm, Paddr, Rights, Vpn};

/// Which boundary surface a capability check (or violation) belongs to.
/// Carried on [`KernelEvent::CapViolation`] so traces distinguish a
/// forged writeback from an out-of-grant map attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapOp {
    /// A `load_mapping` (or transfer) install of a physical page.
    Map,
    /// The copy-on-write source frame of a mapping load.
    CowSource,
    /// A signal-page registration (a mapping load carrying a signal
    /// thread).
    SignalPage,
    /// The target of an application-submitted writeback.
    WritebackTarget,
    /// A grant modification attempted by a non-first kernel
    /// (privilege-escalation retry).
    GrantChange,
}

impl CapOp {
    /// Stable lower-case name for event traces.
    pub fn as_str(self) -> &'static str {
        match self {
            CapOp::Map => "map",
            CapOp::CowSource => "cow-source",
            CapOp::SignalPage => "signal-page",
            CapOp::WritebackTarget => "writeback-target",
            CapOp::GrantChange => "grant-change",
        }
    }
}

/// The opaque payload handle shipped on mapping writebacks in
/// metadata-only mode (`CkConfig::metadata_only`): the Cache Kernel
/// tracks residency and consistency for pages whose *contents* it cannot
/// read, so the writeback carries a content-free token the owning kernel
/// can join against its own backing store instead of page data. The
/// mixing is fixed and deterministic — identical runs replay identical
/// handles — but not the raw frame number, so a handle leaks nothing a
/// kernel does not already know about its own page.
pub fn opaque_payload(paddr: Paddr) -> u64 {
    (paddr.0 as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl CacheKernel {
    /// The rights `caller` holds on `paddr`'s page group, if it is a
    /// loaded kernel. The first kernel implicitly holds everything.
    fn rights_of(&self, caller: ObjId, paddr: Paddr) -> Rights {
        if Some(caller) == self.first_kernel {
            return Rights::ReadWrite;
        }
        self.kernels
            .get(caller)
            .map(|k| k.desc.memory_access.rights_for(paddr))
            .unwrap_or(Rights::None)
    }

    /// Verdict for a grant check that has already *failed* on the legacy
    /// path: with enforcement off this returns the historical
    /// [`CkError::NoAccess`] unchanged (provably inert — same error,
    /// no event, no counter); with enforcement on it raises a
    /// [`KernelEvent::CapViolation`] through the pipeline and returns
    /// [`CkError::CapDenied`].
    pub(crate) fn cap_denied(&mut self, caller: ObjId, paddr: Paddr, op: CapOp) -> CkError {
        if !self.config.caps_enforce {
            return CkError::NoAccess(paddr);
        }
        let retryable = self.rights_of(caller, paddr) != Rights::None;
        self.emit(KernelEvent::CapViolation {
            kernel: caller,
            paddr,
            op,
        });
        CkError::CapDenied { paddr, retryable }
    }

    /// Explicit capability check for boundary surfaces that carried no
    /// grant check historically (writeback targets, restart plumbing).
    /// A no-op unless `caps_enforce` is armed; the first kernel is
    /// always exempt.
    pub(crate) fn cap_check(
        &mut self,
        caller: ObjId,
        paddr: Paddr,
        access: Access,
        op: CapOp,
    ) -> CkResult<()> {
        if !self.config.caps_enforce || Some(caller) == self.first_kernel {
            return Ok(());
        }
        let rights = self.rights_of(caller, paddr);
        if rights.allows(access) {
            return Ok(());
        }
        self.emit(KernelEvent::CapViolation {
            kernel: caller,
            paddr,
            op,
        });
        Err(CkError::CapDenied {
            paddr,
            retryable: rights != Rights::None,
        })
    }

    /// Verdict for a privilege-restricted call attempted by a non-first
    /// kernel. With enforcement off this is the historical
    /// [`CkError::FirstKernelOnly`]; with it on, the attempt (a
    /// grant-escalation retry, in the adversarial generator's terms) is
    /// traced and denied as a non-retryable [`CkError::CapDenied`].
    pub(crate) fn cap_escalation_denied(&mut self, caller: ObjId, paddr: Paddr) -> CkError {
        if !self.config.caps_enforce {
            return CkError::FirstKernelOnly;
        }
        self.emit(KernelEvent::CapViolation {
            kernel: caller,
            paddr,
            op: CapOp::GrantChange,
        });
        CkError::CapDenied {
            paddr,
            retryable: false,
        }
    }

    /// Submit a writeback on behalf of an application kernel — the
    /// boundary an adversary would use to forge displaced state into a
    /// bystander's writeback channel. A kernel may only address
    /// writebacks to *itself* (it is its own backing store; the Cache
    /// Kernel addresses cross-kernel writebacks internally), and a
    /// mapping writeback must name a frame inside the caller's grant.
    /// The first kernel is exempt (it re-routes held state during
    /// recovery). With `caps_enforce` off the submission is queued
    /// unchecked, exactly as trusted internal callers are.
    pub fn submit_writeback(&mut self, caller: ObjId, wb: Writeback) -> CkResult<()> {
        self.kernel(caller)?;
        if self.config.caps_enforce && Some(caller) != self.first_kernel {
            let anchor = match &wb {
                Writeback::Mapping { paddr, .. } => *paddr,
                _ => Paddr(0),
            };
            if wb.owner() != caller {
                self.emit(KernelEvent::CapViolation {
                    kernel: caller,
                    paddr: anchor,
                    op: CapOp::WritebackTarget,
                });
                return Err(CkError::CapDenied {
                    paddr: anchor,
                    retryable: false,
                });
            }
            if let Writeback::Mapping { paddr, .. } = &wb {
                self.cap_check(caller, *paddr, Access::Read, CapOp::WritebackTarget)?;
            }
        }
        self.queue_writeback(wb);
        Ok(())
    }

    /// Tear down every mapping of `kernel` whose frame the (freshly
    /// narrowed) grant no longer covers, in one batched shootdown round.
    /// Called from `modify_kernel_grant` after a rights reduction so a
    /// down-scoped kernel cannot keep touching pages through stale PTEs
    /// — the mechanism behind restart-under-reduced-grant. The displaced
    /// states go back over the writeback channel; the kernel remains its
    /// own backing store for them.
    pub(crate) fn revoke_out_of_grant_mappings(
        &mut self,
        kernel: ObjId,
        group_first: u32,
        group_count: u32,
        mpm: &mut Mpm,
    ) {
        let group_end = group_first.saturating_add(group_count);
        let mut stale: Vec<(ObjId, Vpn)> = Vec::new();
        for (sid, s) in self.spaces.iter() {
            if s.owner != kernel {
                continue;
            }
            for (vpn, pte) in s.pt.iter() {
                let group = pte.pfn().group();
                if group < group_first || group >= group_end {
                    continue;
                }
                let needed = if pte.has(hw::Pte::WRITABLE) {
                    Access::Write
                } else {
                    Access::Read
                };
                let rights = self
                    .kernels
                    .get(kernel)
                    .map(|k| k.desc.memory_access.get(group))
                    .unwrap_or(Rights::None);
                if !rights.allows(needed) {
                    stale.push((sid, vpn));
                }
            }
        }
        if stale.is_empty() {
            return;
        }
        let mut batch = self.take_shootdown_batch();
        for (sid, vpn) in stale {
            self.unload_mapping_impl(sid, vpn, mpm, true, Some(&mut batch));
        }
        self.finish_shootdown(batch, mpm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::{CkConfig, Writeback};
    use crate::objects::SpaceDesc;
    use crate::test_support::{grant_groups, setup_with};
    use hw::{Pte, Vaddr, PAGE_GROUP_SIZE};

    #[test]
    fn caps_off_keeps_the_fast_path_inert() {
        // The defaults pin: with `caps_enforce` down, a rights failure
        // is the exact legacy `NoAccess`, nothing is counted, nothing is
        // traced, and granted loads behave identically to seed.
        let (mut ck, mut mpm, srm) = setup_with(CkConfig::default());
        let k = ck.load_kernel(srm, grant_groups(&[0]), &mut mpm).unwrap();
        let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
        ck.load_mapping(k, sp, Vaddr(0x1000), Paddr(0x3000), 0, None, None, &mut mpm)
            .unwrap();
        let err = ck
            .load_mapping(
                k,
                sp,
                Vaddr(0x2000),
                Paddr(PAGE_GROUP_SIZE),
                0,
                None,
                None,
                &mut mpm,
            )
            .unwrap_err();
        assert_eq!(err, CkError::NoAccess(Paddr(PAGE_GROUP_SIZE)));
        assert_eq!(ck.stats.cap_denied, 0);
        assert_eq!(ck.stats.metadata_writebacks, 0);
        assert!(!ck
            .drain_events()
            .iter()
            .any(|e| matches!(e, KernelEvent::CapViolation { .. })));
        ck.check_invariants().unwrap();
    }

    #[test]
    fn caps_on_denies_counts_and_traces() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            caps_enforce: true,
            ..CkConfig::default()
        });
        let k = ck.load_kernel(srm, grant_groups(&[0]), &mut mpm).unwrap();
        let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
        // Wholly outside the grant: fatal.
        let err = ck
            .load_mapping(
                k,
                sp,
                Vaddr(0x2000),
                Paddr(PAGE_GROUP_SIZE),
                0,
                None,
                None,
                &mut mpm,
            )
            .unwrap_err();
        assert_eq!(
            err,
            CkError::CapDenied {
                paddr: Paddr(PAGE_GROUP_SIZE),
                retryable: false
            }
        );
        assert_eq!(ck.stats.cap_denied, 1);
        let evs = ck.drain_events();
        assert!(evs.iter().any(|e| matches!(
            e,
            KernelEvent::CapViolation { kernel, op: CapOp::Map, .. } if *kernel == k
        )));
        ck.check_invariants().unwrap();
    }

    #[test]
    fn partial_rights_are_a_retryable_denial() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            caps_enforce: true,
            ..CkConfig::default()
        });
        let mut desc = grant_groups(&[]);
        desc.memory_access.set(0, Rights::Read);
        let k = ck.load_kernel(srm, desc, &mut mpm).unwrap();
        let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
        let err = ck
            .load_mapping(
                k,
                sp,
                Vaddr(0x2000),
                Paddr(0x4000),
                Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap_err();
        assert_eq!(
            err,
            CkError::CapDenied {
                paddr: Paddr(0x4000),
                retryable: true
            }
        );
        assert_eq!(ck.stats.cap_denied, 1);
    }

    #[test]
    fn forged_writeback_target_is_denied() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            caps_enforce: true,
            ..CkConfig::default()
        });
        let mal = ck.load_kernel(srm, grant_groups(&[0]), &mut mpm).unwrap();
        let victim = ck.load_kernel(srm, grant_groups(&[1]), &mut mpm).unwrap();
        let wb = Writeback::Mapping {
            owner: victim,
            space: victim, // nonsense ids are fine: the forgery dies first
            vaddr: Vaddr(0x1000),
            paddr: Paddr(PAGE_GROUP_SIZE),
            flags: 0,
            payload: 0,
        };
        let err = ck.submit_writeback(mal, wb).unwrap_err();
        assert!(matches!(err, CkError::CapDenied { .. }));
        assert_eq!(ck.stats.cap_denied, 1);
        assert_eq!(ck.pending_writebacks(), 0, "forgery never queued");
        // A self-addressed writeback inside the grant goes through.
        ck.submit_writeback(
            mal,
            Writeback::Mapping {
                owner: mal,
                space: mal,
                vaddr: Vaddr(0x1000),
                paddr: Paddr(0x3000),
                flags: 0,
                payload: 0,
            },
        )
        .unwrap();
        assert_eq!(ck.pending_writebacks(), 1);
    }

    #[test]
    fn grant_escalation_is_denied_and_traced() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            caps_enforce: true,
            ..CkConfig::default()
        });
        let mal = ck.load_kernel(srm, grant_groups(&[0]), &mut mpm).unwrap();
        let err = ck
            .modify_kernel_grant(mal, mal, 1, 1, Rights::ReadWrite, &mut mpm)
            .unwrap_err();
        assert!(matches!(
            err,
            CkError::CapDenied {
                retryable: false,
                ..
            }
        ));
        assert_eq!(ck.stats.cap_denied, 1);
        // With caps off the same attempt is the legacy FirstKernelOnly.
        ck.config.caps_enforce = false;
        let err = ck
            .modify_kernel_grant(mal, mal, 1, 1, Rights::ReadWrite, &mut mpm)
            .unwrap_err();
        assert_eq!(err, CkError::FirstKernelOnly);
        assert_eq!(ck.stats.cap_denied, 1, "no count with caps off");
    }

    #[test]
    fn down_scope_tears_down_stale_mappings_in_one_round() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            caps_enforce: true,
            ..CkConfig::default()
        });
        let k = ck
            .load_kernel(srm, grant_groups(&[0, 1]), &mut mpm)
            .unwrap();
        let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
        // Two mappings in group 0, two in group 1.
        for (i, pa) in [0x1000, 0x2000, PAGE_GROUP_SIZE, PAGE_GROUP_SIZE + 0x1000]
            .iter()
            .enumerate()
        {
            ck.load_mapping(
                k,
                sp,
                Vaddr(0x10_000 + (i as u32) * 0x1000),
                Paddr(*pa),
                Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        let rounds_before = ck.stats.shootdown_rounds;
        ck.modify_kernel_grant(srm, k, 1, 1, Rights::None, &mut mpm)
            .unwrap();
        assert_eq!(
            ck.stats.shootdown_rounds,
            rounds_before + 1,
            "revocation is one batched round"
        );
        // Group-1 mappings are gone, group-0 mappings intact.
        assert!(ck.query_mapping(k, sp, Vaddr(0x12_000)).is_err());
        assert!(ck.query_mapping(k, sp, Vaddr(0x13_000)).is_err());
        assert!(ck.query_mapping(k, sp, Vaddr(0x10_000)).is_ok());
        assert!(ck.query_mapping(k, sp, Vaddr(0x11_000)).is_ok());
        // The displaced states went back over the writeback channel.
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 2);
        assert!(wbs.iter().all(|w| w.owner() == k));
        ck.check_invariants().unwrap();
        ck.check_visibility(&mpm).unwrap();
    }

    #[test]
    fn metadata_only_ships_opaque_payload_handles() {
        let (mut ck, mut mpm, srm) = setup_with(CkConfig {
            metadata_only: true,
            ..CkConfig::default()
        });
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0x5000),
            Paddr(0x9000),
            Pte::WRITABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        // Replacing the mapping displaces the old one: metadata-only
        // writeback, content-free handle attached.
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0x5000),
            Paddr(0xa000),
            Pte::WRITABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 1);
        match &wbs[0] {
            Writeback::Mapping { paddr, payload, .. } => {
                assert_eq!(*paddr, Paddr(0x9000));
                assert_eq!(*payload, opaque_payload(Paddr(0x9000)));
                assert_ne!(*payload, 0);
            }
            other => panic!("unexpected writeback {other:?}"),
        }
        assert_eq!(ck.stats.metadata_writebacks, 1);
        // Off by default: the handle stays zero and the counter silent.
        ck.config.metadata_only = false;
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0x5000),
            Paddr(0xb000),
            Pte::WRITABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        let wbs = ck.take_writebacks();
        assert!(matches!(&wbs[0], Writeback::Mapping { payload: 0, .. }));
        assert_eq!(ck.stats.metadata_writebacks, 1);
    }
}
