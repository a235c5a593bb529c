//! Serializing actions (§3.1), implemented with the fig. 11 colour
//! scheme.
//!
//! A serializing action is "atomic with respect to concurrency but not
//! with respect to failures": its constituent steps are top-level for
//! permanence (each step's effects are flushed to stable storage at the
//! step's own commit), while the locks a step releases are retained by
//! the enclosing serializing action so no outside action can interpose
//! between steps.
//!
//! The colour scheme (fig. 11): the wrapper is a pure control action
//! with a private *fence* colour (the paper's red); each constituent
//! possesses the fence colour plus its own private *update* colour (the
//! paper's blue). Updates are written under the update colour — the
//! constituent is outermost for it, so they become permanent at the
//! constituent's commit. Every object a constituent touches is *also*
//! locked in the fence colour (exclusive-read for writes, read for
//! reads); those fence locks are inherited by the wrapper at the
//! constituent's commit, protecting the object until the wrapper ends.

use chroma_base::{ActionId, Colour, ColourSet, LockMode, ObjectId};
use chroma_core::{ActionError, ActionScope, Runtime};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// A serializing action: a sequence (or concurrent set) of top-level
/// steps whose locks are handed from each step to the wrapper and on to
/// later steps.
///
/// Possible outcomes for a two-step serializing action `A{B; C}` (§3.1):
///
/// 1. B aborts — nothing happened;
/// 2. B and C commit — both sets of effects are permanent, and become
///    visible together when [`end`](SerializingAction::end) releases the
///    fences;
/// 3. B commits, C aborts — B's effects alone are permanent (this is
///    exactly what plain nesting cannot express).
///
/// Dropping a `SerializingAction` without calling `end` aborts the
/// wrapper; effects of already-committed steps remain permanent (the
/// wrapper performs no writes of its own, so its abort only releases
/// the fences).
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::SerializingAction;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&0i64)?;
///
/// let sa = SerializingAction::begin(&rt)?;
/// sa.step(|s| s.write(o, &1i64))?; // permanent at this step's commit
/// sa.step(|s| {
///     let v: i64 = s.read(o)?;
///     s.write(o, &(v + 1))
/// })?;
/// sa.end()?;
/// assert_eq!(rt.read_committed::<i64>(o)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SerializingAction {
    rt: Runtime,
    control: ActionId,
    fence: Colour,
    finished: bool,
}

impl SerializingAction {
    /// Begins a serializing action as a top-level wrapper.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime) -> Result<Self, ActionError> {
        Self::begin_under(rt, None)
    }

    /// Begins a serializing action nested under `parent`.
    ///
    /// The wrapper still uses a fresh private fence colour, so the
    /// constituents remain top-level for permanence even though the
    /// wrapper is lexically nested.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin_under(rt: &Runtime, parent: Option<ActionId>) -> Result<Self, ActionError> {
        let fence = rt.universe().fresh()?;
        let control = match parent {
            Some(parent) => rt.begin_nested(parent, ColourSet::single(fence))?,
            None => rt.begin_top(ColourSet::single(fence))?,
        };
        Ok(SerializingAction {
            rt: rt.clone(),
            control,
            fence,
            finished: false,
        })
    }

    /// Returns the wrapper action's id (for tests and metrics).
    #[must_use]
    pub fn control_id(&self) -> ActionId {
        self.control
    }

    /// Returns the fence colour (for tests and metrics).
    #[must_use]
    pub fn fence_colour(&self) -> Colour {
        self.fence
    }

    /// Runs one constituent step.
    ///
    /// The step is a top-level action for permanence: if the body
    /// returns `Ok`, its updates are immediately flushed to stable
    /// storage, and the locks on every object it touched pass to the
    /// wrapper. If the body returns `Err`, the step is aborted; earlier
    /// steps' effects are unaffected, and the serializing action may run
    /// further steps or end.
    ///
    /// Steps may run concurrently from several threads (fig. 8 uses
    /// this for distributed make): conflicting steps serialize on their
    /// object locks.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the step.
    pub fn step<R>(
        &self,
        body: impl FnOnce(&mut SerialStep<'_, '_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let update = self.rt.universe().fresh()?;
        let colours = ColourSet::from_iter([self.fence, update]);
        let result = self.rt.run_nested(self.control, colours, update, |scope| {
            let mut step = SerialStep {
                scope,
                fence: self.fence,
                update,
            };
            body(&mut step)
        });
        self.rt.universe().release(update);
        result
    }

    /// Ends the serializing action: commits the wrapper, releasing every
    /// retained fence lock and making the steps' effects visible to
    /// other actions simultaneously.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(mut self) -> Result<(), ActionError> {
        self.finished = true;
        let result = self.rt.commit(self.control);
        self.rt.universe().release(self.fence);
        result
    }

    /// Abandons the serializing action: aborts the wrapper.
    ///
    /// Effects of committed steps are **not** undone — they were
    /// permanent at each step's commit; only the fences are released.
    /// This is the "not atomic with respect to failures" half of the
    /// structure.
    pub fn abandon(mut self) {
        self.finished = true;
        self.rt.abort(self.control);
        self.rt.universe().release(self.fence);
    }
}

impl Drop for SerializingAction {
    fn drop(&mut self) {
        if !self.finished {
            self.rt.abort(self.control);
            self.rt.universe().release(self.fence);
        }
    }
}

/// Operation surface of one serializing-action step.
///
/// Every access automatically maintains the fig. 11 fence: writes take a
/// write lock in the step's update colour *and* an exclusive-read lock
/// in the fence colour; reads take read locks in both. The fence locks
/// are what the wrapper retains between steps.
#[derive(Debug)]
pub struct SerialStep<'a, 'rt> {
    scope: &'a mut ActionScope<'rt>,
    fence: Colour,
    update: Colour,
}

impl SerialStep<'_, '_> {
    /// Returns the underlying action id.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.scope.id()
    }

    /// Returns the step's private update colour.
    #[must_use]
    pub fn update_colour(&self) -> Colour {
        self.update
    }

    /// Reads an object (read-locked in both update and fence colours).
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures.
    pub fn read<T: DeserializeOwned>(&self, object: ObjectId) -> Result<T, ActionError> {
        self.scope.lock(self.fence, object, LockMode::Read)?;
        self.scope.read_in(self.update, object)
    }

    /// Writes an object (write-locked in the update colour,
    /// exclusive-read fenced in the fence colour).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn write<T: Serialize + ?Sized>(
        &self,
        object: ObjectId,
        value: &T,
    ) -> Result<(), ActionError> {
        self.scope
            .lock(self.fence, object, LockMode::ExclusiveRead)?;
        self.scope.write_in(self.update, object, value)
    }

    /// Creates a new object inside the step (fenced like a write).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn create<T: Serialize + ?Sized>(&self, value: &T) -> Result<ObjectId, ActionError> {
        let object = self.scope.create_in(self.update, value)?;
        self.scope
            .lock(self.fence, object, LockMode::ExclusiveRead)?;
        Ok(object)
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
        // Fence first, then `modify_in` write-locks before reading:
        // two concurrent steps that read-locked first would deadlock
        // trying to upgrade.
        self.scope
            .lock(self.fence, object, LockMode::ExclusiveRead)?;
        self.scope.modify_in(self.update, object, f)
    }
}
