//! Behavioural tests for the §3 action structures: the three serializing
//! outcomes, glued hand-over and early release, independent actions and
//! the fig. 13 conflict caveat.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chroma_base::LockMode;
use chroma_core::{ActionError, Runtime, RuntimeConfig};
use chroma_structures::{
    independent_async, independent_at_level, independent_sync, independent_with_compensation,
    probe_conflict, GluedChain, GluedGroup, SerializingAction,
};

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(300)),
        })
        .build()
}

// ---------------------------------------------------------------------
// Serializing actions: the three outcomes of §3.1
// ---------------------------------------------------------------------

#[test]
fn serializing_outcome_both_commit() {
    let rt = Runtime::builder().build();
    let b_obj = rt.create_object(&0i64).unwrap();
    let c_obj = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(b_obj, &1i64)).unwrap();
    sa.step(|s| {
        let b: i64 = s.read(b_obj)?;
        s.write(c_obj, &(b + 1))
    })
    .unwrap();
    sa.end().unwrap();
    assert_eq!(rt.read_committed::<i64>(b_obj).unwrap(), 1);
    assert_eq!(rt.read_committed::<i64>(c_obj).unwrap(), 2);
}

#[test]
fn serializing_outcome_first_step_aborts() {
    let rt = Runtime::builder().build();
    let b_obj = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    let err = sa.step(|s| {
        s.write(b_obj, &1i64)?;
        Err::<(), _>(ActionError::failed("B aborts"))
    });
    assert!(err.is_err());
    sa.end().unwrap();
    // Outcome (i): no effects.
    assert_eq!(rt.read_committed::<i64>(b_obj).unwrap(), 0);
}

#[test]
fn serializing_outcome_second_step_aborts_first_survives() {
    let rt = Runtime::builder().build();
    let b_obj = rt.create_object(&0i64).unwrap();
    let c_obj = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(b_obj, &1i64)).unwrap();
    let err = sa.step(|s| {
        s.write(c_obj, &2i64)?;
        Err::<(), _>(ActionError::failed("C aborts"))
    });
    assert!(err.is_err());
    sa.end().unwrap();
    // Outcome (iii): B's effects alone are permanent — the behaviour
    // plain nesting cannot give (contrast fig. 2).
    assert_eq!(rt.read_committed::<i64>(b_obj).unwrap(), 1);
    assert_eq!(rt.read_committed::<i64>(c_obj).unwrap(), 0);
}

#[test]
fn serializing_step_work_survives_wrapper_abandon() {
    let rt = Runtime::builder().build();
    let b_obj = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(b_obj, &1i64)).unwrap();
    sa.abandon(); // "not atomic with respect to failures"
    assert_eq!(rt.read_committed::<i64>(b_obj).unwrap(), 1);
}

#[test]
fn serializing_fences_objects_between_steps() {
    let rt = rt_fast();
    let o = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(o, &1i64)).unwrap();
    // Between steps: a stranger cannot read or write o.
    let err = rt.atomic(|a| a.read::<i64>(o)).unwrap_err();
    assert!(matches!(err, ActionError::Lock(_)));
    // But the next step can.
    sa.step(|s| {
        let v: i64 = s.read(o)?;
        s.write(o, &(v + 1))
    })
    .unwrap();
    sa.end().unwrap();
    // After the wrapper ends, the object is free.
    assert_eq!(rt.atomic(|a| a.read::<i64>(o)).unwrap(), 2);
}

#[test]
fn serializing_read_fence_blocks_writers_only_for_strangers() {
    let rt = rt_fast();
    let o = rt.create_object(&7i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.read::<i64>(o).map(|_| ())).unwrap();
    // Stranger writes are blocked (the fence read lock is retained)...
    assert!(rt.atomic(|a| a.write(o, &8i64)).is_err());
    // ...but stranger READS are fine: the wrapper holds only a read
    // fence for objects the steps merely read.
    assert_eq!(rt.atomic(|a| a.read::<i64>(o)).unwrap(), 7);
    sa.end().unwrap();
}

#[test]
fn serializing_steps_make_visible_simultaneously_at_end() {
    let rt = rt_fast();
    let o1 = rt.create_object(&0i64).unwrap();
    let o2 = rt.create_object(&0i64).unwrap();
    let sa = SerializingAction::begin(&rt).unwrap();
    sa.step(|s| s.write(o1, &1i64)).unwrap();
    sa.step(|s| s.write(o2, &1i64)).unwrap();
    // Both steps committed (stable), but neither is visible to others.
    assert!(rt.atomic(|a| a.read::<i64>(o1)).is_err());
    assert!(rt.atomic(|a| a.read::<i64>(o2)).is_err());
    sa.end().unwrap();
    assert_eq!(rt.atomic(|a| a.read::<i64>(o1)).unwrap(), 1);
    assert_eq!(rt.atomic(|a| a.read::<i64>(o2)).unwrap(), 1);
}

#[test]
fn serializing_concurrent_steps_serialize_on_conflicts() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let sa = Arc::new(SerializingAction::begin(&rt).unwrap());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let sa = Arc::clone(&sa);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    sa.step(|s| s.modify(o, |v: &mut i64| *v += 1)).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    Arc::try_unwrap(sa).unwrap().end().unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 40);
}

// ---------------------------------------------------------------------
// Glued actions
// ---------------------------------------------------------------------

#[test]
fn glued_concurrent_contributors_serialize_on_conflicts() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let group = Arc::new(GluedGroup::begin(&rt).unwrap());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    group
                        .contribute(|s| s.modify(o, |v: &mut i64| *v += 1))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    Arc::try_unwrap(group).unwrap().end().unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 40);
}

#[test]
fn glued_hand_over_protects_selected_objects_only() {
    let rt = rt_fast();
    let kept = rt.create_object(&0i64).unwrap();
    let dropped = rt.create_object(&0i64).unwrap();
    let chain = GluedChain::begin(&rt, 3).unwrap();
    chain
        .step(|s| {
            s.write(kept, &1i64)?;
            s.write(dropped, &1i64)?;
            s.hand_over(kept)
        })
        .unwrap();
    // The non-handed object is free immediately (fig. 5's improvement
    // over the serializing action, fig. 4b)...
    assert_eq!(rt.atomic(|a| a.read::<i64>(dropped)).unwrap(), 1);
    rt.atomic(|a| a.write(dropped, &5i64)).unwrap();
    // ...while the handed-over object is fenced.
    assert!(rt.atomic(|a| a.read::<i64>(kept)).is_err());
    chain
        .step(|s| {
            let v: i64 = s.read(kept)?;
            s.write(kept, &(v + 10))
        })
        .unwrap();
    chain.end().unwrap();
    assert_eq!(rt.read_committed::<i64>(kept).unwrap(), 11);
    assert_eq!(rt.read_committed::<i64>(dropped).unwrap(), 5);
}

#[test]
fn glued_chain_releases_rejected_objects_mid_chain() {
    // Fig. 9: slots rejected by a round become free before the chain
    // ends.
    let rt = rt_fast();
    let slots: Vec<_> = (0..4).map(|_| rt.create_object(&0u8).unwrap()).collect();
    let chain = GluedChain::begin(&rt, 4).unwrap();
    // Round 1: consider all slots, keep the first three.
    chain
        .step(|s| {
            for &slot in &slots {
                s.write(slot, &1u8)?;
            }
            for &slot in &slots[..3] {
                s.hand_over(slot)?;
            }
            Ok(())
        })
        .unwrap();
    // slots[3] is free already.
    assert!(rt.atomic(|a| a.read::<u8>(slots[3])).is_ok());
    assert!(rt.atomic(|a| a.read::<u8>(slots[0])).is_err());
    // Round 2: narrow to the first two.
    chain
        .step(|s| {
            for &slot in &slots[..2] {
                s.write(slot, &2u8)?;
                s.hand_over(slot)?;
            }
            Ok(())
        })
        .unwrap();
    // slots[2] — rejected by round 2 — is now free, mid-chain.
    assert!(rt.atomic(|a| a.read::<u8>(slots[2])).is_ok());
    assert!(rt.atomic(|a| a.read::<u8>(slots[1])).is_err());
    // Round 3: settle on slot 0.
    chain
        .step(|s| {
            s.write(slots[0], &9u8)?;
            s.hand_over(slots[0])?;
            Ok(())
        })
        .unwrap();
    assert!(rt.atomic(|a| a.read::<u8>(slots[1])).is_ok());
    chain.end().unwrap();
    assert!(rt.atomic(|a| a.read::<u8>(slots[0])).is_ok());
    assert_eq!(rt.read_committed::<u8>(slots[0]).unwrap(), 9);
}

#[test]
fn glued_step_effects_survive_later_failures() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let chain = GluedChain::begin(&rt, 2).unwrap();
    chain
        .step(|s| {
            s.write(o, &1i64)?;
            s.hand_over(o)
        })
        .unwrap();
    let err = chain.step(|s| {
        s.write(o, &2i64)?;
        Err::<(), _>(ActionError::failed("step 2 fails"))
    });
    assert!(err.is_err());
    chain.abandon();
    // Step 1's effect is permanent; step 2's was undone.
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
    assert_eq!(rt.read_current::<i64>(o).unwrap(), 1);
}

#[test]
fn glued_failed_step_can_be_retried() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let chain = GluedChain::begin(&rt, 2).unwrap();
    chain
        .step(|s| {
            s.write(o, &1i64)?;
            s.hand_over(o)
        })
        .unwrap();
    let _ = chain.step(|s| {
        s.write(o, &2i64)?;
        Err::<(), _>(ActionError::failed("transient"))
    });
    // Retry succeeds; the hand-over fence was unaffected by the abort.
    chain
        .step(|s| {
            let v: i64 = s.read(o)?;
            s.write(o, &(v + 2))
        })
        .unwrap();
    chain.end().unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 3);
}

#[test]
fn glued_capacity_is_enforced() {
    let rt = Runtime::builder().build();
    let chain = GluedChain::begin(&rt, 1).unwrap();
    assert_eq!(chain.remaining_capacity(), 2);
    chain.step(|_| Ok(())).unwrap();
    chain.step(|_| Ok(())).unwrap();
    assert_eq!(chain.remaining_capacity(), 0);
    let err = chain.step(|_| Ok(())).unwrap_err();
    assert!(matches!(err, ActionError::Failed(_)));
    chain.end().unwrap();
}

#[test]
fn glued_final_step_cannot_hand_over() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0u8).unwrap();
    let chain = GluedChain::begin(&rt, 1).unwrap();
    chain
        .step(|s| {
            s.write(o, &1u8)?;
            s.hand_over(o)
        })
        .unwrap();
    let err = chain.step(|s| s.hand_over(o)).unwrap_err();
    assert!(matches!(err, ActionError::Failed(_)));
    chain.end().unwrap();
}

#[test]
fn glued_group_concurrent_contributors_and_receivers() {
    // Fig. 6: A1..An glued to B1..Bn through a shared glue colour.
    let rt = rt_fast();
    let objects: Vec<_> = (0..4)
        .map(|i| rt.create_object(&(i as i64)).unwrap())
        .collect();
    let group = Arc::new(GluedGroup::begin(&rt).unwrap());
    let contributors: Vec<_> = objects
        .iter()
        .map(|&o| {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                group
                    .contribute(|s| {
                        s.modify(o, |v: &mut i64| *v += 100)?;
                        s.hand_over(o)
                    })
                    .unwrap();
            })
        })
        .collect();
    for t in contributors {
        t.join().unwrap();
    }
    // All handed-over objects are fenced against strangers...
    for &o in &objects {
        assert!(rt.atomic(|a| a.read::<i64>(o)).is_err());
    }
    // ...but receivers inside the group can process them concurrently.
    let receivers: Vec<_> = objects
        .iter()
        .map(|&o| {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                group
                    .receive(|s| s.modify(o, |v: &mut i64| *v *= 2))
                    .unwrap();
            })
        })
        .collect();
    for t in receivers {
        t.join().unwrap();
    }
    Arc::try_unwrap(group).unwrap().end().unwrap();
    for (i, &o) in objects.iter().enumerate() {
        assert_eq!(rt.read_committed::<i64>(o).unwrap(), (i as i64 + 100) * 2);
    }
}

// ---------------------------------------------------------------------
// Independent actions
// ---------------------------------------------------------------------

#[test]
fn sync_independent_survives_invoker_abort() {
    let rt = Runtime::builder().build();
    let ledger = rt.create_object(&0u32).unwrap();
    let main = rt.create_object(&0u32).unwrap();
    let result: Result<(), ActionError> = rt.atomic(|a| {
        a.write(main, &1u32)?;
        independent_sync(a, |b| b.modify(ledger, |n: &mut u32| *n += 1))?;
        Err(ActionError::failed("invoker aborts"))
    });
    assert!(result.is_err());
    assert_eq!(rt.read_committed::<u32>(ledger).unwrap(), 1); // survives
    assert_eq!(rt.read_committed::<u32>(main).unwrap(), 0); // undone
}

#[test]
fn sync_independent_failure_leaves_invoker_free_to_continue() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0u32).unwrap();
    rt.atomic(|a| {
        let failed = independent_sync(a, |_b| {
            Err::<(), _>(ActionError::failed("independent action aborts"))
        });
        assert!(failed.is_err());
        // Fig. 7a: "subsequent activities of A can be made to depend
        // upon the outcome of B" — here A chooses to continue.
        a.write(o, &1u32)
    })
    .unwrap();
    assert_eq!(rt.read_committed::<u32>(o).unwrap(), 1);
}

#[test]
fn async_independent_runs_concurrently_and_survives() {
    let rt = Runtime::builder().build();
    let board = rt.create_object(&0u32).unwrap();
    let started = Arc::new(AtomicBool::new(false));
    let result: Result<(), ActionError> = rt.atomic(|a| {
        let flag = Arc::clone(&started);
        let handle = independent_async(a.runtime(), move |b| {
            flag.store(true, Ordering::SeqCst);
            b.modify(board, |n: &mut u32| *n += 1)
        });
        handle.join()?;
        Err(ActionError::failed("invoker aborts after posting"))
    });
    assert!(result.is_err());
    assert!(started.load(Ordering::SeqCst));
    assert_eq!(rt.read_committed::<u32>(board).unwrap(), 1);
}

#[test]
fn fig13_conflicting_access_is_detected_not_hung() {
    // The invoker holds a write lock; the "independent" action needs the
    // same object. Two true top-level actions would deadlock (fig. 13a);
    // the coloured implementation detects the cycle and victimises the
    // invoked action.
    let rt = Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_secs(5)),
        })
        .build();
    let o = rt.create_object(&0i64).unwrap();
    let outcome = rt.atomic(|a| {
        a.write(o, &1i64)?;
        let inner = independent_sync(a, |b| b.write(o, &2i64));
        // The inner action must have failed as a deadlock victim —
        // quickly, not by timeout.
        match inner {
            Err(e) if e.is_deadlock_victim() => Ok("detected"),
            other => Ok(match other {
                Ok(()) => "granted",
                Err(_) => "other-error",
            }),
        }
    });
    assert_eq!(outcome.unwrap(), "detected");
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
}

#[test]
fn probe_conflict_reports_invoker_conflicts() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| {
        assert!(probe_conflict(a, o, LockMode::Read)?);
        a.write(o, &1i64)?;
        // Now a would-be independent action cannot touch o.
        assert!(!probe_conflict(a, o, LockMode::Read)?);
        assert!(!probe_conflict(a, o, LockMode::Write)?);
        Ok(())
    })
    .unwrap();
}

#[test]
fn n_level_independence_at_level_one() {
    // Fig. 14/15: E invoked inside B survives B's abort but not A's.
    let rt = Runtime::builder().build();
    let e_obj = rt.create_object(&0i64).unwrap();

    // Case 1: B aborts — E survives.
    let blue = rt.universe().colour("outer-a1");
    let red = rt.universe().colour("inner-b1");
    let a = rt
        .begin_top(chroma_base::ColourSet::from_iter([red, blue]))
        .unwrap();
    {
        let result: Result<(), ActionError> =
            rt.run_nested(a, chroma_base::ColourSet::single(red), red, |b| {
                independent_at_level(b, 1, |e| e.write(e_obj, &1i64))?;
                Err(ActionError::failed("B aborts"))
            });
        assert!(result.is_err());
    }
    // E's effect is held by A (not yet permanent), not undone by B.
    assert_eq!(rt.read_current::<i64>(e_obj).unwrap(), 1);
    rt.commit(a).unwrap();
    assert_eq!(rt.read_committed::<i64>(e_obj).unwrap(), 1);

    // Case 2: A aborts after B committed — E is undone.
    let e_obj2 = rt.create_object(&0i64).unwrap();
    let blue2 = rt.universe().colour("outer-a2");
    let red2 = rt.universe().colour("inner-b2");
    let a2 = rt
        .begin_top(chroma_base::ColourSet::from_iter([red2, blue2]))
        .unwrap();
    rt.run_nested(a2, chroma_base::ColourSet::single(red2), red2, |b| {
        independent_at_level(b, 1, |e| e.write(e_obj2, &1i64))
    })
    .unwrap();
    rt.abort(a2);
    assert_eq!(rt.read_current::<i64>(e_obj2).unwrap(), 0);
}

#[test]
fn independent_at_level_zero_is_plain_nesting() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let result: Result<(), ActionError> = rt.atomic(|a| {
        independent_at_level(a, 0, |n| n.write(o, &5i64))?;
        Err(ActionError::failed("parent aborts"))
    });
    assert!(result.is_err());
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0); // undone: nested
}

#[test]
fn compensation_fires_on_invoker_abort() {
    let rt = Runtime::builder().build();
    let board = rt.create_object(&Vec::<String>::new()).unwrap();
    let result: Result<(), ActionError> = rt.atomic(|a| {
        let ((), comp) = independent_with_compensation(
            a,
            |post| {
                post.modify(board, |b: &mut Vec<String>| {
                    b.push("meeting at 10".to_owned());
                })
            },
            move |retract| {
                retract.modify(board, |b: &mut Vec<String>| {
                    b.push("CANCELLED: meeting at 10".to_owned());
                })
            },
        )?;
        // The main work fails; fire the compensation before aborting.
        comp.fire().join()?;
        Err(ActionError::failed("main work failed"))
    });
    assert!(result.is_err());
    let posts: Vec<String> = rt.read_committed(board).unwrap();
    assert_eq!(posts.len(), 2);
    assert!(posts[1].starts_with("CANCELLED"));
}

#[test]
fn compensation_discarded_on_invoker_commit() {
    let rt = Runtime::builder().build();
    let board = rt.create_object(&Vec::<String>::new()).unwrap();
    rt.atomic(|a| {
        let ((), comp) = independent_with_compensation(
            a,
            |post| post.modify(board, |b: &mut Vec<String>| b.push("hello".to_owned())),
            move |retract| retract.modify(board, |b: &mut Vec<String>| b.push("undo".to_owned())),
        )?;
        comp.discard();
        Ok(())
    })
    .unwrap();
    let posts: Vec<String> = rt.read_committed(board).unwrap();
    assert_eq!(posts, vec!["hello".to_owned()]);
}
