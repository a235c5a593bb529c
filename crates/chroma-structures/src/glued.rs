//! Glued actions (§3.2), implemented with the fig. 12 colour scheme.
//!
//! Gluing passes locks on a *selected subset* of objects atomically from
//! one top-level action to the next, while every other lock is released
//! at the first action's commit. This gets the concurrency of separate
//! top-level actions (fig. 4a) without the unprotected gap, and avoids
//! the over-locking of a serializing action (fig. 4b), which would fence
//! everything until the last step ends.
//!
//! **Single gap (fig. 12):** a control action G with a private glue
//! colour encloses A (glue + private update colour) and B (private
//! update colour). A writes everything in its update colour and
//! additionally exclusive-read-locks the hand-over set in the glue
//! colour; at A's commit the update locks are released (A is outermost
//! for them — effects permanent, non-handed objects free) while the glue
//! fences pass to G. B, nested in G, may then acquire write locks on the
//! handed-over objects — G's exclusive-read fence blocks everyone else.
//!
//! **Chains (fig. 9):** the diary example needs slot locks released as
//! soon as a round rejects them. One wrapper per *gap* achieves this,
//! with wrappers nested outermost-first: `F_n ⊃ … ⊃ F_1`, step `I_1`,
//! `I_2` inside `F_1`, and `I_{i+1}` inside `F_i`. When `I_{i+1}`
//! commits, `F_i` commits too: `F_i` is outermost for gap colour `g_i`,
//! so *every* gap-i fence is released — objects the new step re-fenced
//! are protected by `g_{i+1}` (held by `F_{i+1}`), and rejected objects
//! become free immediately, mid-chain. This is the tree-shaped
//! realisation of the paper's "entries in diaries are not unnecessarily
//! kept locked".

use chroma_base::{ActionId, Colour, ColourSet, LockMode, ObjectId};
use chroma_core::{ActionError, ActionScope, Runtime};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// A chain of glued top-level actions with per-gap hand-over.
///
/// Each [`step`](GluedChain::step) is a top-level action for permanence.
/// Inside a step, [`GluedStep::hand_over`] fences an object for the next
/// step; everything else the step touched becomes available to other
/// actions the moment the step commits.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::GluedChain;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let kept = rt.create_object(&0i64)?;
/// let dropped = rt.create_object(&0i64)?;
///
/// let chain = GluedChain::begin(&rt, 4)?;
/// chain.step(|s| {
///     s.write(kept, &1i64)?;
///     s.write(dropped, &1i64)?;
///     s.hand_over(kept)?; // only `kept` stays locked after this step
///     Ok(())
/// })?;
/// // `dropped` is free here; `kept` is fenced for the next step.
/// chain.step(|s| {
///     let v: i64 = s.read(kept)?;
///     s.write(kept, &(v + 1))
/// })?;
/// chain.end()?;
/// assert_eq!(rt.read_committed::<i64>(kept)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GluedChain {
    rt: Runtime,
    /// Gap wrappers, outermost first: `wrappers[0]` is `F_capacity`,
    /// the last element is `F_1`. Entries are popped (committed) from
    /// the back as gaps close.
    state: parking_lot::Mutex<ChainState>,
}

#[derive(Debug)]
struct ChainState {
    /// `(wrapper action, gap colour)`, innermost (next to close) last.
    wrappers: Vec<(ActionId, Colour)>,
    /// Steps run so far.
    steps: usize,
    finished: bool,
}

impl GluedChain {
    /// Begins a glued chain able to run up to `capacity` steps.
    ///
    /// `capacity` gap wrappers (and gap colours) are pre-allocated,
    /// nested outermost-first; unused ones are committed (empty) by
    /// [`end`](GluedChain::end). Capacity is bounded by the 64-colour
    /// universe budget.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime, capacity: usize) -> Result<Self, ActionError> {
        Self::begin_under(rt, None, capacity)
    }

    /// Begins a glued chain nested under `parent`.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin_under(
        rt: &Runtime,
        parent: Option<ActionId>,
        capacity: usize,
    ) -> Result<Self, ActionError> {
        let mut wrappers = Vec::with_capacity(capacity);
        let mut current_parent = parent;
        // Outermost wrapper first: F_capacity, …, F_1.
        for _ in 0..capacity {
            let gap = rt.universe().fresh()?;
            let wrapper = match current_parent {
                Some(p) => rt.begin_nested(p, ColourSet::single(gap))?,
                None => rt.begin_top(ColourSet::single(gap))?,
            };
            wrappers.push((wrapper, gap));
            current_parent = Some(wrapper);
        }
        Ok(GluedChain {
            rt: rt.clone(),
            state: parking_lot::Mutex::new(ChainState {
                wrappers,
                steps: 0,
                finished: false,
            }),
        })
    }

    /// Returns the number of steps run so far.
    #[must_use]
    pub fn steps_run(&self) -> usize {
        self.state.lock().steps
    }

    /// Returns how many further steps the chain can run.
    ///
    /// A chain begun with capacity `n` runs up to `n + 1` steps: the
    /// innermost wrapper hosts the first two steps, every other wrapper
    /// one; the final step cannot hand anything over.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        let state = self.state.lock();
        if state.finished || state.wrappers.is_empty() {
            return 0;
        }
        if state.steps <= 1 {
            state.wrappers.len() + 1 - state.steps
        } else {
            state.wrappers.len()
        }
    }

    /// Runs the next step of the chain as a top-level (for permanence)
    /// action.
    ///
    /// On commit, objects handed over by the *previous* step that this
    /// step did not re-fence become available to every other action; the
    /// objects this step [`hand_over`](GluedStep::hand_over)s stay
    /// fenced for the next step.
    ///
    /// # Errors
    ///
    /// [`ActionError::Failed`] if capacity is exhausted; otherwise
    /// propagates the body's error after aborting the step (the chain
    /// stays usable — a failed step may be retried).
    pub fn step<R>(
        &self,
        body: impl FnOnce(&mut GluedStep<'_, '_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let (host, gap_colour, closes_gap) = {
            let state = self.state.lock();
            if state.finished {
                return Err(ActionError::failed("glued chain already ended"));
            }
            // The host is always the innermost remaining wrapper: steps 1
            // and 2 run in F_1; once step i+1 commits, F_i closes, so
            // step i+2 finds F_{i+1} innermost.
            let &(host, host_gap) = state.wrappers.last().ok_or_else(cap_err)?;
            let first_step = state.steps == 0;
            // The colour this step fences hand-overs in: the first step
            // uses its host's own gap (F_1 inherits it); later steps use
            // the next wrapper out (F_{i+1}), since their host closes
            // right after they commit. The final possible step has no
            // next gap.
            let gap_colour = if first_step {
                Some(host_gap)
            } else {
                let n = state.wrappers.len();
                n.checked_sub(2).map(|p| state.wrappers[p].1)
            };
            (host, gap_colour, !first_step)
        };

        let update = self.rt.universe().fresh()?;
        let mut colours = ColourSet::single(update);
        if let Some(gap) = gap_colour {
            colours = colours.with(gap);
        }
        let result = self.rt.run_nested(host, colours, update, |scope| {
            let mut step = GluedStep {
                scope,
                gap: gap_colour,
                update,
            };
            body(&mut step)
        });
        self.rt.universe().release(update);

        match result {
            Ok(value) => {
                let mut state = self.state.lock();
                state.steps += 1;
                if closes_gap {
                    // Close the gap wrapper: releases the previous gap's
                    // fences (rejected objects become free mid-chain).
                    let (wrapper, colour) =
                        state.wrappers.pop().expect("host wrapper still present");
                    self.rt.commit(wrapper)?;
                    self.rt.universe().release(colour);
                }
                Ok(value)
            }
            Err(error) => Err(error),
        }
    }

    /// Ends the chain: commits every remaining wrapper (innermost
    /// first), releasing all fences.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(self) -> Result<(), ActionError> {
        let mut state = self.state.lock();
        state.finished = true;
        while let Some((wrapper, colour)) = state.wrappers.pop() {
            self.rt.commit(wrapper)?;
            self.rt.universe().release(colour);
        }
        Ok(())
    }

    /// Abandons the chain: aborts every remaining wrapper. Effects of
    /// committed steps remain permanent; only fences are released.
    pub fn abandon(self) {
        let mut state = self.state.lock();
        state.finished = true;
        // Abort the outermost wrapper: children abort recursively.
        if let Some(&(outermost, _)) = state.wrappers.first() {
            self.rt.abort(outermost);
        }
        for (_, colour) in state.wrappers.drain(..) {
            self.rt.universe().release(colour);
        }
    }
}

impl Drop for GluedChain {
    fn drop(&mut self) {
        let mut state = self.state.lock();
        if !state.finished {
            state.finished = true;
            if let Some(&(outermost, _)) = state.wrappers.first() {
                self.rt.abort(outermost);
            }
            for (_, colour) in state.wrappers.drain(..) {
                self.rt.universe().release(colour);
            }
        }
    }
}

fn cap_err() -> ActionError {
    ActionError::failed("glued chain capacity exhausted")
}

/// Operation surface of one glued-chain step.
///
/// Reads and writes use the step's private update colour (released —
/// and made permanent — at the step's commit).
/// [`hand_over`](GluedStep::hand_over) additionally fences an object in the gap
/// colour so it passes, still locked, to the next step.
#[derive(Debug)]
pub struct GluedStep<'a, 'rt> {
    scope: &'a mut ActionScope<'rt>,
    gap: Option<Colour>,
    update: Colour,
}

impl GluedStep<'_, '_> {
    /// Returns the underlying action id.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.scope.id()
    }

    /// Reads an object in the step's update colour.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures.
    pub fn read<T: DeserializeOwned>(&self, object: ObjectId) -> Result<T, ActionError> {
        self.scope.read_in(self.update, object)
    }

    /// Writes an object in the step's update colour.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn write<T: Serialize + ?Sized>(
        &self,
        object: ObjectId,
        value: &T,
    ) -> Result<(), ActionError> {
        self.scope.write_in(self.update, object, value)
    }

    /// Creates a new object inside the step.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn create<T: Serialize + ?Sized>(&self, value: &T) -> Result<ObjectId, ActionError> {
        self.scope.create_in(self.update, value)
    }

    /// Fences `object` in the gap colour so its lock passes atomically
    /// to the next step of the chain.
    ///
    /// # Errors
    ///
    /// [`ActionError::Failed`] if this is the chain's final possible
    /// step (no next gap exists); lock failures otherwise.
    pub fn hand_over(&self, object: ObjectId) -> Result<(), ActionError> {
        let gap = self
            .gap
            .ok_or_else(|| ActionError::failed("no next gap: chain capacity reached"))?;
        self.scope.lock(gap, object, LockMode::ExclusiveRead)
    }

    /// Reads, transforms and writes back an object.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures.
    pub fn modify<T, R>(
        &self,
        object: ObjectId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ActionError>
    where
        T: DeserializeOwned + Serialize,
    {
        // `modify_in` write-locks before reading: two concurrent steps
        // that read-locked first would deadlock trying to upgrade.
        self.scope.modify_in(self.update, object, f)
    }
}

/// Concurrent glued actions (fig. 6): several contributor actions hand
/// objects over, through a single shared glue colour, to receiver
/// actions that run after them.
///
/// The scheme is the paper's: "giving A1..An colours red and blue and
/// enclosing them within a red coloured action".
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::GluedGroup;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&1i64)?;
/// let group = GluedGroup::begin(&rt)?;
/// group.contribute(|s| {
///     s.write(o, &2i64)?;
///     s.hand_over(o)
/// })?;
/// group.receive(|s| {
///     let v: i64 = s.read(o)?;
///     s.write(o, &(v * 10))
/// })?;
/// group.end()?;
/// assert_eq!(rt.read_committed::<i64>(o)?, 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GluedGroup {
    rt: Runtime,
    control: ActionId,
    glue: Colour,
    finished: parking_lot::Mutex<bool>,
}

impl GluedGroup {
    /// Begins a glued group as a top-level control action.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime) -> Result<Self, ActionError> {
        let glue = rt.universe().fresh()?;
        let control = rt.begin_top(ColourSet::single(glue))?;
        Ok(GluedGroup {
            rt: rt.clone(),
            control,
            glue,
            finished: parking_lot::Mutex::new(false),
        })
    }

    /// Returns the control action's id (for tests and metrics).
    #[must_use]
    pub fn control_id(&self) -> ActionId {
        self.control
    }

    /// Runs a contributor action (an `A_i` of fig. 6): top-level for
    /// permanence, able to [`hand_over`](GluedStep::hand_over) objects
    /// into the group's glue. Safe to call from several threads.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the contributor.
    pub fn contribute<R>(
        &self,
        body: impl FnOnce(&mut GluedStep<'_, '_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let update = self.rt.universe().fresh()?;
        let colours = ColourSet::from_iter([self.glue, update]);
        let result = self.rt.run_nested(self.control, colours, update, |scope| {
            let mut step = GluedStep {
                scope,
                gap: Some(self.glue),
                update,
            };
            body(&mut step)
        });
        self.rt.universe().release(update);
        result
    }

    /// Runs a receiver action (a `B_i` of fig. 6): top-level for
    /// permanence, able to lock the handed-over objects because it is
    /// nested inside the fence-holding control. Safe to call from
    /// several threads.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the receiver.
    pub fn receive<R>(
        &self,
        body: impl FnOnce(&mut GluedStep<'_, '_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let update = self.rt.universe().fresh()?;
        let result = self
            .rt
            .run_nested(self.control, ColourSet::single(update), update, |scope| {
                let mut step = GluedStep {
                    scope,
                    gap: None,
                    update,
                };
                body(&mut step)
            });
        self.rt.universe().release(update);
        result
    }

    /// Ends the group: commits the control action, releasing all glue
    /// fences.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(self) -> Result<(), ActionError> {
        *self.finished.lock() = true;
        let result = self.rt.commit(self.control);
        self.rt.universe().release(self.glue);
        result
    }

    /// Abandons the group: aborts the control action. Committed
    /// contributors'/receivers' effects remain permanent.
    pub fn abandon(self) {
        *self.finished.lock() = true;
        self.rt.abort(self.control);
        self.rt.universe().release(self.glue);
    }
}

impl Drop for GluedGroup {
    fn drop(&mut self) {
        let mut finished = self.finished.lock();
        if !*finished {
            *finished = true;
            self.rt.abort(self.control);
            self.rt.universe().release(self.glue);
        }
    }
}
