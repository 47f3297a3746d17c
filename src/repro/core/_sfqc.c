/* _sfqc: the compiled SFQ engine (REPRO_ENGINE=compiled).
 *
 * Hand-written CPython extension over the columnar arena.  It exports
 * nine hot-path entry points: the four chain walks of repro/core/sfq.py
 * (pick_leaf, charge_chain, wake_chain, sleep_chain), its four queue ops
 * (queue_pick, queue_charge, queue_set_runnable, queue_set_blocked) and
 * the uniprocessor Machine's burst-completion tick (machine_tick).  Every
 * function here is a behavioural mirror of the pure-python definition — same
 * state writes in the same order, same heap entry tuples, same
 * arithmetic — so the two engines are byte-identical on traces and
 * schedstat (gated in CI by the committed golden fixtures).
 *
 * Data contract (see sfq.py for the authoritative index tables):
 *   queue._cview = [heap, state, ent, start, fin, run, ver, seq,
 *                   solo, float_fast, tags, slots]
 *   queue._state = [vt, max_finish, in_service_slot, runnable_count]
 *   heap entries = (start_tag, arrival_seq, version, slot)
 *   chain entry  = (queue, float_fast, solo, heap, state, start, fin,
 *                   run, ver, seq, slot, entity, parent)
 *
 * Arithmetic: float-mode tag math runs on C doubles, which is exact
 * w.r.t. CPython because ints below 2^53 convert exactly and IEEE
 * division of exact operands is correctly rounded — the same value
 * CPython's long_true_divide produces.  Anything outside that range
 * (or exact/Fraction mode) falls back to the Python object protocol,
 * i.e. literally the same code paths the pure engine uses.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ---- index tables (mirrors of sfq.py constants) ------------------------- */

enum { CV_HEAP, CV_STATE, CV_ENT, CV_START, CV_FIN, CV_RUN, CV_VER,
       CV_SEQ, CV_SOLO, CV_FLOAT, CV_TAGS, CV_SLOTS, CV_LEN };

enum { ST_VT, ST_MF, ST_SRV, ST_RC, ST_LEN };

enum { CH_QUEUE, CH_FLOAT, CH_SOLO, CH_HEAP, CH_STATE, CH_START, CH_FIN,
       CH_RUN, CH_VER, CH_SEQ, CH_SLOT, CH_ENTITY, CH_PARENT, CH_LEN };

/* interned attribute names, created at module init */
static PyObject *str_cview, *str_weight, *str_advance, *str_runnable,
    *str_queue;
/* repro.errors.SchedulingError, resolved at module init */
static PyObject *SchedulingError;
/* cached small ints */
static PyObject *long_zero;

/* exact-double range: |int| <= 2^53 converts to double losslessly */
#define EXACT_DOUBLE_MAX 9007199254740992LL /* 2^53 */

/* ---- small helpers ------------------------------------------------------ */

static int
as_ssize(PyObject *obj, Py_ssize_t *out)
{
    Py_ssize_t value = PyLong_AsSsize_t(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

/* obj < other for tag values (floats fast, object protocol otherwise).
 * Returns 1/0, or -1 with an exception set. */
static int
tag_lt(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) < PyFloat_AS_DOUBLE(b);
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
tag_gt(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) > PyFloat_AS_DOUBLE(b);
    return PyObject_RichCompareBool(a, b, Py_GT);
}

/* strict-weak order on heap entries (start, seq, version, slot): compare
 * start tags, then the integer tie-breakers.  Returns 1 if a < b. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    PyObject *sa = PyTuple_GET_ITEM(a, 0);
    PyObject *sb = PyTuple_GET_ITEM(b, 0);
    int cmp = tag_lt(sa, sb);
    if (cmp != 0)
        return cmp; /* 1 or -1 */
    cmp = tag_gt(sa, sb);
    if (cmp < 0)
        return -1;
    if (cmp)
        return 0;
    for (int idx = 1; idx < 4; idx++) {
        Py_ssize_t va, vb;
        if (as_ssize(PyTuple_GET_ITEM(a, idx), &va) < 0 ||
            as_ssize(PyTuple_GET_ITEM(b, idx), &vb) < 0)
            return -1;
        if (va != vb)
            return va < vb;
    }
    return 0;
}

/* Event-queue entries are (time, priority, seq, handle): compare the
 * three leading ints lexicographically.  seq is unique, so the order is
 * total and the pop sequence is layout-independent (same argument as
 * for the SFQ heap keys). */
static int
event_entry_lt(PyObject *a, PyObject *b)
{
    for (int idx = 0; idx < 3; idx++) {
        PyObject *pa = PyTuple_GET_ITEM(a, idx);
        PyObject *pb = PyTuple_GET_ITEM(b, idx);
        if (PyLong_CheckExact(pa) && PyLong_CheckExact(pb)) {
            int oa = 0, ob = 0;
            long long va = PyLong_AsLongLongAndOverflow(pa, &oa);
            long long vb = PyLong_AsLongLongAndOverflow(pb, &ob);
            if (!oa && !ob) {
                if (va != vb)
                    return va < vb;
                continue;
            }
        }
        int lt = PyObject_RichCompareBool(pa, pb, Py_LT);
        if (lt != 0)
            return lt; /* 1 or -1 */
        int gt = PyObject_RichCompareBool(pa, pb, Py_GT);
        if (gt < 0)
            return -1;
        if (gt)
            return 0;
    }
    return 0;
}

typedef int (*entry_cmp)(PyObject *, PyObject *);

/* heappush(heap, item): append + sift toward the root.  Steals no
 * references (caller keeps ownership of item; the list increfs).
 * List size is re-read around every comparison in case a user-defined
 * tag __lt__ mutates the heap (mirrors CPython's own heapq caution). */
static int
heap_push_cmp(PyObject *heap, PyObject *item, entry_cmp lt_fn)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    Py_ssize_t pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (pos >= PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "heap mutated during push comparison");
            return -1;
        }
        PyObject *child_entry = PyList_GET_ITEM(heap, pos);
        PyObject *parent_entry = PyList_GET_ITEM(heap, parent);
        int lt = lt_fn(child_entry, parent_entry);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        /* ownership swap: both pointers stay owned by the list */
        PyList_SET_ITEM(heap, pos, parent_entry);
        PyList_SET_ITEM(heap, parent, child_entry);
        pos = parent;
    }
    return 0;
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    return heap_push_cmp(heap, item, entry_lt);
}

/* heappop(heap) discarding the result (the engines only pop stale
 * entries).  Standard sift-down of the relocated tail element. */
static int
heap_discard_min(PyObject *heap)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    if (size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty heap");
        return -1;
    }
    PyObject *tail = PyList_GET_ITEM(heap, size - 1);
    Py_INCREF(tail);
    if (PyList_SetSlice(heap, size - 1, size, NULL) < 0) {
        Py_DECREF(tail);
        return -1;
    }
    size -= 1;
    if (size == 0) {
        Py_DECREF(tail);
        return 0;
    }
    /* replace the root with the tail; the root's reference transfers to
     * this decref, the tail's extra reference transfers to the list */
    PyObject *root = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, tail);
    Py_DECREF(root);
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "heap mutated during pop comparison");
            return -1;
        }
        if (child + 1 < size) {
            int right_lt = entry_lt(PyList_GET_ITEM(heap, child + 1),
                                    PyList_GET_ITEM(heap, child));
            if (right_lt < 0)
                return -1;
            if (right_lt)
                child += 1;
        }
        int child_lt = entry_lt(PyList_GET_ITEM(heap, child),
                                PyList_GET_ITEM(heap, pos));
        if (child_lt < 0)
            return -1;
        if (!child_lt)
            break;
        PyObject *a = PyList_GET_ITEM(heap, pos);
        PyObject *b = PyList_GET_ITEM(heap, child);
        PyList_SET_ITEM(heap, pos, b);
        PyList_SET_ITEM(heap, child, a);
        pos = child;
    }
    return 0;
}

/* finish = start + length / weight, matching the pure engine bit for bit.
 * float_fast: C doubles when everything is exactly representable,
 * object-protocol arithmetic otherwise; exact mode: tags.advance().
 * Returns a new reference. */
static PyObject *
advance_tag(PyObject *tags, int float_fast, PyObject *start,
            PyObject *length, PyObject *weight)
{
    if (float_fast) {
        if (PyFloat_CheckExact(start) && PyLong_CheckExact(length) &&
            PyLong_CheckExact(weight)) {
            int oflow_l = 0, oflow_w = 0;
            long long lval = PyLong_AsLongLongAndOverflow(length, &oflow_l);
            long long wval = PyLong_AsLongLongAndOverflow(weight, &oflow_w);
            if (!oflow_l && !oflow_w &&
                lval >= 0 && lval <= EXACT_DOUBLE_MAX &&
                wval > 0 && wval <= EXACT_DOUBLE_MAX) {
                double quotient = (double)lval / (double)wval;
                return PyFloat_FromDouble(PyFloat_AS_DOUBLE(start) + quotient);
            }
            if ((!oflow_w && wval <= 0)) {
                /* mirror the pure engine's validation message */
                PyErr_Format(PyExc_ValueError,
                             "weight must be positive, got %R", weight);
                return NULL;
            }
        }
        /* same expression through the object protocol */
        int sign = PyObject_RichCompareBool(weight, long_zero, Py_GT);
        if (sign < 0)
            return NULL;
        if (!sign) {
            PyErr_Format(PyExc_ValueError,
                         "weight must be positive, got %R", weight);
            return NULL;
        }
        PyObject *quotient = PyNumber_TrueDivide(length, weight);
        if (quotient == NULL)
            return NULL;
        PyObject *finish = PyNumber_Add(start, quotient);
        Py_DECREF(quotient);
        return finish;
    }
    return PyObject_CallMethodObjArgs(tags, str_advance, start, length,
                                      weight, NULL);
}

/* read list[i] borrowed with bounds responsibility on the caller */
#define COL(list, i) PyList_GET_ITEM((list), (i))

/* store an owned reference into a list column (decrefs the old value) */
static int
col_store(PyObject *list, Py_ssize_t i, PyObject *owned)
{
    if (owned == NULL)
        return -1;
    return PyList_SetItem(list, i, owned); /* steals owned, decrefs old */
}

static int
bump_version(PyObject *ver_col, Py_ssize_t slot, Py_ssize_t *out)
{
    Py_ssize_t version;
    if (as_ssize(COL(ver_col, slot), &version) < 0)
        return -1;
    version += 1;
    if (col_store(ver_col, slot, PyLong_FromSsize_t(version)) < 0)
        return -1;
    *out = version;
    return 0;
}

/* push (tag, seq, version, slot) for a slot; tag is borrowed */
static int
push_entry(PyObject *heap, PyObject *tag, PyObject *seq_col,
           Py_ssize_t slot, Py_ssize_t version)
{
    PyObject *entry = PyTuple_New(4);
    if (entry == NULL)
        return -1;
    Py_INCREF(tag);
    PyTuple_SET_ITEM(entry, 0, tag);
    PyObject *seq = COL(seq_col, slot);
    Py_INCREF(seq);
    PyTuple_SET_ITEM(entry, 1, seq);
    PyObject *version_obj = PyLong_FromSsize_t(version);
    PyObject *slot_obj = PyLong_FromSsize_t(slot);
    if (version_obj == NULL || slot_obj == NULL) {
        Py_XDECREF(version_obj);
        Py_XDECREF(slot_obj);
        Py_DECREF(entry);
        return -1;
    }
    PyTuple_SET_ITEM(entry, 2, version_obj);
    PyTuple_SET_ITEM(entry, 3, slot_obj);
    int rc = heap_push(heap, entry);
    Py_DECREF(entry);
    return rc;
}

/* ---- per-queue operations ---------------------------------------------- */

/* Validate and fetch queue._cview as a borrowed-from-new-ref list.  The
 * caller must Py_DECREF(*cview) when done. */
static int
get_cview(PyObject *queue, PyObject **cview)
{
    PyObject *view = PyObject_GetAttr(queue, str_cview);
    if (view == NULL)
        return -1;
    if (!PyList_Check(view) || PyList_GET_SIZE(view) != CV_LEN) {
        Py_DECREF(view);
        PyErr_SetString(PyExc_TypeError, "malformed SfqQueue._cview");
        return -1;
    }
    *cview = view;
    return 0;
}

static Py_ssize_t
slot_for_entity(PyObject *slots, PyObject *entity)
{
    PyObject *key = PyLong_FromVoidPtr(entity); /* == id(entity) */
    if (key == NULL)
        return -1;
    PyObject *slot_obj = PyDict_GetItemWithError(slots, key); /* borrowed */
    Py_DECREF(key);
    if (slot_obj == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(SchedulingError, "entity %R not in SFQ queue",
                         entity);
        return -1;
    }
    Py_ssize_t slot;
    if (as_ssize(slot_obj, &slot) < 0)
        return -1;
    return slot;
}

/* core of SfqQueue.pick over an unpacked cview; returns a *borrowed*
 * reference to the picked entity, Py_None borrowed if nothing runnable,
 * NULL on error. */
static PyObject *
pick_from_cview(PyObject *cview)
{
    PyObject *heap = COL(cview, CV_HEAP);
    PyObject *state = COL(cview, CV_STATE);
    PyObject *ent_col = COL(cview, CV_ENT);
    PyObject *start_col = COL(cview, CV_START);
    PyObject *run_col = COL(cview, CV_RUN);
    PyObject *ver_col = COL(cview, CV_VER);
    Py_ssize_t solo;
    if (as_ssize(COL(cview, CV_SOLO), &solo) < 0)
        return NULL;

    Py_ssize_t slot = -1;
    PyObject *start = NULL; /* borrowed */
    if (solo >= 0) {
        int runnable = PyObject_IsTrue(COL(run_col, solo));
        if (runnable < 0)
            return NULL;
        if (!runnable)
            return Py_None;
        slot = solo;
        start = COL(start_col, solo);
    }
    else {
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *head = COL(heap, 0);
            Py_ssize_t candidate, entry_version, live_version;
            if (as_ssize(PyTuple_GET_ITEM(head, 3), &candidate) < 0 ||
                as_ssize(PyTuple_GET_ITEM(head, 2), &entry_version) < 0 ||
                as_ssize(COL(ver_col, candidate), &live_version) < 0)
                return NULL;
            int runnable = PyObject_IsTrue(COL(run_col, candidate));
            if (runnable < 0)
                return NULL;
            if (runnable && entry_version == live_version) {
                slot = candidate;
                start = PyTuple_GET_ITEM(head, 0);
                break;
            }
            if (heap_discard_min(heap) < 0)
                return NULL;
        }
        if (slot < 0)
            return Py_None;
    }
    if (col_store(state, ST_SRV, PyLong_FromSsize_t(slot)) < 0)
        return NULL;
    int ahead = tag_gt(start, COL(state, ST_VT));
    if (ahead < 0)
        return NULL;
    if (ahead) {
        Py_INCREF(start);
        if (col_store(state, ST_VT, start) < 0)
            return NULL;
    }
    return COL(ent_col, slot);
}

static PyObject *
sfqc_queue_pick(PyObject *Py_UNUSED(module), PyObject *queue)
{
    PyObject *cview;
    if (get_cview(queue, &cview) < 0)
        return NULL;
    PyObject *picked = pick_from_cview(cview);
    Py_DECREF(cview);
    if (picked == NULL)
        return NULL;
    Py_INCREF(picked);
    return picked;
}

/* shared tail of charge(): store finish, advance max-finish, clear the
 * in-service marker, restamp + repush while runnable.  finish is owned
 * by the caller and stolen here. */
static int
charge_slot(PyObject *heap, PyObject *state, PyObject *start_col,
            PyObject *fin_col, PyObject *run_col, PyObject *ver_col,
            PyObject *seq_col, Py_ssize_t solo, Py_ssize_t slot,
            PyObject *finish)
{
    if (col_store(fin_col, slot, finish) < 0)
        return -1; /* finish consumed even on failure */
    /* finish is now borrowed from the column */
    finish = COL(fin_col, slot);
    int beyond = tag_gt(finish, COL(state, ST_MF));
    if (beyond < 0)
        return -1;
    if (beyond) {
        Py_INCREF(finish);
        if (col_store(state, ST_MF, finish) < 0)
            return -1;
    }
    Py_ssize_t in_service;
    if (as_ssize(COL(state, ST_SRV), &in_service) < 0)
        return -1;
    if (in_service == slot) {
        if (col_store(state, ST_SRV, PyLong_FromSsize_t(-1)) < 0)
            return -1;
    }
    int runnable = PyObject_IsTrue(COL(run_col, slot));
    if (runnable < 0)
        return -1;
    if (runnable) {
        Py_INCREF(finish);
        if (col_store(start_col, slot, finish) < 0)
            return -1;
        finish = COL(start_col, slot);
        Py_ssize_t version;
        if (bump_version(ver_col, slot, &version) < 0)
            return -1;
        if (solo < 0 && push_entry(heap, finish, seq_col, slot, version) < 0)
            return -1;
    }
    return 0;
}

static int
queue_charge_impl(PyObject *queue, PyObject *entity, PyObject *length)
{
    /* mirror the pure precondition: negative lengths are rejected */
    int negative = PyObject_RichCompareBool(length, long_zero, Py_LT);
    if (negative < 0)
        return -1;
    if (negative) {
        PyErr_Format(SchedulingError, "negative charge length %S", length);
        return -1;
    }
    PyObject *cview;
    if (get_cview(queue, &cview) < 0)
        return -1;
    PyObject *slots = COL(cview, CV_SLOTS);
    Py_ssize_t slot = slot_for_entity(slots, entity);
    if (slot < 0)
        goto fail;
    PyObject *weight = PyObject_GetAttr(entity, str_weight);
    if (weight == NULL)
        goto fail;
    Py_ssize_t float_fast, solo;
    if (as_ssize(COL(cview, CV_FLOAT), &float_fast) < 0 ||
        as_ssize(COL(cview, CV_SOLO), &solo) < 0) {
        Py_DECREF(weight);
        goto fail;
    }
    PyObject *start_col = COL(cview, CV_START);
    PyObject *finish = advance_tag(COL(cview, CV_TAGS), (int)float_fast,
                                   COL(start_col, slot), length, weight);
    Py_DECREF(weight);
    if (finish == NULL)
        goto fail;
    if (charge_slot(COL(cview, CV_HEAP), COL(cview, CV_STATE), start_col,
                    COL(cview, CV_FIN), COL(cview, CV_RUN),
                    COL(cview, CV_VER), COL(cview, CV_SEQ), solo, slot,
                    finish) < 0)
        goto fail;
    Py_DECREF(cview);
    return 0;
fail:
    Py_DECREF(cview);
    return -1;
}

static PyObject *
sfqc_queue_charge(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "queue_charge expects (queue, entity, length)");
        return NULL;
    }
    if (queue_charge_impl(args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
queue_set_runnable_impl(PyObject *queue, PyObject *entity)
{
    PyObject *cview;
    if (get_cview(queue, &cview) < 0)
        return -1;
    Py_ssize_t slot = slot_for_entity(COL(cview, CV_SLOTS), entity);
    if (slot < 0)
        goto fail;
    PyObject *run_col = COL(cview, CV_RUN);
    int runnable = PyObject_IsTrue(COL(run_col, slot));
    if (runnable < 0)
        goto fail;
    if (runnable) {
        Py_DECREF(cview);
        return 0;
    }
    PyObject *state = COL(cview, CV_STATE);
    PyObject *start_col = COL(cview, CV_START);
    PyObject *fin_col = COL(cview, CV_FIN);
    PyObject *ver_col = COL(cview, CV_VER);
    Py_ssize_t solo, count;
    if (as_ssize(COL(cview, CV_SOLO), &solo) < 0 ||
        as_ssize(COL(state, ST_RC), &count) < 0)
        goto fail;
    if (col_store(run_col, slot, PyLong_FromLong(1)) < 0 ||
        col_store(state, ST_RC, PyLong_FromSsize_t(count + 1)) < 0)
        goto fail;
    /* start = max(v, F) */
    PyObject *start = COL(fin_col, slot);
    int behind = tag_lt(start, COL(state, ST_VT));
    if (behind < 0)
        goto fail;
    if (behind)
        start = COL(state, ST_VT);
    Py_INCREF(start);
    if (col_store(start_col, slot, start) < 0)
        goto fail;
    start = COL(start_col, slot);
    Py_ssize_t version;
    if (bump_version(ver_col, slot, &version) < 0)
        goto fail;
    if (solo < 0 && push_entry(COL(cview, CV_HEAP), start,
                               COL(cview, CV_SEQ), slot, version) < 0)
        goto fail;
    Py_DECREF(cview);
    return 0;
fail:
    Py_DECREF(cview);
    return -1;
}

static PyObject *
sfqc_queue_set_runnable(PyObject *Py_UNUSED(module), PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "queue_set_runnable expects (queue, entity)");
        return NULL;
    }
    if (queue_set_runnable_impl(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
queue_set_blocked_impl(PyObject *queue, PyObject *entity)
{
    PyObject *cview;
    if (get_cview(queue, &cview) < 0)
        return -1;
    Py_ssize_t slot = slot_for_entity(COL(cview, CV_SLOTS), entity);
    if (slot < 0)
        goto fail;
    PyObject *run_col = COL(cview, CV_RUN);
    int runnable = PyObject_IsTrue(COL(run_col, slot));
    if (runnable < 0)
        goto fail;
    if (!runnable) {
        Py_DECREF(cview);
        return 0;
    }
    PyObject *state = COL(cview, CV_STATE);
    Py_ssize_t version, count, in_service;
    if (col_store(run_col, slot, PyLong_FromLong(0)) < 0 ||
        bump_version(COL(cview, CV_VER), slot, &version) < 0 ||
        as_ssize(COL(state, ST_RC), &count) < 0)
        goto fail;
    count -= 1;
    if (col_store(state, ST_RC, PyLong_FromSsize_t(count)) < 0 ||
        as_ssize(COL(state, ST_SRV), &in_service) < 0)
        goto fail;
    if (in_service == slot &&
        col_store(state, ST_SRV, PyLong_FromSsize_t(-1)) < 0)
        goto fail;
    if (count == 0) {
        int jump = tag_gt(COL(state, ST_MF), COL(state, ST_VT));
        if (jump < 0)
            goto fail;
        if (jump) {
            PyObject *max_finish = COL(state, ST_MF);
            Py_INCREF(max_finish);
            if (col_store(state, ST_VT, max_finish) < 0)
                goto fail;
        }
    }
    Py_DECREF(cview);
    return 0;
fail:
    Py_DECREF(cview);
    return -1;
}

static PyObject *
sfqc_queue_set_blocked(PyObject *Py_UNUSED(module), PyObject *const *args,
                       Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "queue_set_blocked expects (queue, entity)");
        return NULL;
    }
    if (queue_set_blocked_impl(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- tree descent ------------------------------------------------------- */

/* Min-start descent from root until a node of leaf_type is reached.
 * Returns a NEW reference to the leaf (or Py_None when some queue ran
 * empty mid-walk), with the decision depth in *depth_out. */
static PyObject *
pick_leaf_walk(PyObject *root, PyTypeObject *leaf_type, Py_ssize_t *depth_out)
{
    PyObject *node = root;
    Py_INCREF(node);
    Py_ssize_t depth = 1;
    while (Py_TYPE(node) != leaf_type) {
        PyObject *queue = PyObject_GetAttr(node, str_queue);
        if (queue == NULL) {
            Py_DECREF(node);
            return NULL;
        }
        PyObject *cview;
        int rc = get_cview(queue, &cview);
        Py_DECREF(queue);
        if (rc < 0) {
            Py_DECREF(node);
            return NULL;
        }
        PyObject *child = pick_from_cview(cview); /* borrowed */
        if (child == NULL) {
            Py_DECREF(cview);
            Py_DECREF(node);
            return NULL;
        }
        if (child == Py_None) {
            Py_DECREF(cview);
            Py_DECREF(node);
            *depth_out = depth;
            Py_RETURN_NONE;
        }
        Py_INCREF(child);
        Py_DECREF(cview);
        Py_DECREF(node);
        node = child;
        depth += 1;
    }
    *depth_out = depth;
    return node;
}

static PyObject *
sfqc_pick_leaf(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "pick_leaf expects (root, leaf_type)");
        return NULL;
    }
    if (!PyType_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "leaf_type must be a type");
        return NULL;
    }
    Py_ssize_t depth = 0;
    PyObject *leaf = pick_leaf_walk(args[0], (PyTypeObject *)args[1], &depth);
    if (leaf == NULL)
        return NULL;
    PyObject *result = Py_BuildValue("On", leaf, depth);
    Py_DECREF(leaf);
    return result;
}

/* ---- chain walks -------------------------------------------------------- */

static int
check_chain(PyObject *chain)
{
    if (!PyList_Check(chain)) {
        PyErr_SetString(PyExc_TypeError, "chain must be a list");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(chain); i++) {
        PyObject *entry = PyList_GET_ITEM(chain, i);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != CH_LEN) {
            PyErr_SetString(PyExc_TypeError, "malformed chain entry");
            return -1;
        }
    }
    return 0;
}

static int
charge_chain_impl(PyObject *chain, PyObject *length)
{
    if (check_chain(chain) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(chain); i++) {
        PyObject *entry = PyList_GET_ITEM(chain, i);
        PyObject *queue = PyTuple_GET_ITEM(entry, CH_QUEUE);
        PyObject *entity = PyTuple_GET_ITEM(entry, CH_ENTITY);
        Py_ssize_t float_fast, solo, slot;
        if (as_ssize(PyTuple_GET_ITEM(entry, CH_FLOAT), &float_fast) < 0 ||
            as_ssize(PyTuple_GET_ITEM(entry, CH_SOLO), &solo) < 0 ||
            as_ssize(PyTuple_GET_ITEM(entry, CH_SLOT), &slot) < 0)
            return -1;
        PyObject *weight = PyObject_GetAttr(entity, str_weight);
        if (weight == NULL)
            return -1;
        PyObject *start_col = PyTuple_GET_ITEM(entry, CH_START);
        PyObject *tags = NULL;
        if (!float_fast) {
            tags = PyObject_GetAttrString(queue, "tags");
            if (tags == NULL) {
                Py_DECREF(weight);
                return -1;
            }
        }
        PyObject *finish = advance_tag(tags, (int)float_fast,
                                       COL(start_col, slot), length, weight);
        Py_XDECREF(tags);
        Py_DECREF(weight);
        if (finish == NULL)
            return -1;
        if (charge_slot(PyTuple_GET_ITEM(entry, CH_HEAP),
                        PyTuple_GET_ITEM(entry, CH_STATE), start_col,
                        PyTuple_GET_ITEM(entry, CH_FIN),
                        PyTuple_GET_ITEM(entry, CH_RUN),
                        PyTuple_GET_ITEM(entry, CH_VER),
                        PyTuple_GET_ITEM(entry, CH_SEQ),
                        solo, slot, finish) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
sfqc_charge_chain(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "charge_chain expects (chain, length)");
        return NULL;
    }
    if (charge_chain_impl(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
wake_chain_impl(PyObject *chain)
{
    if (check_chain(chain) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(chain); i++) {
        PyObject *entry = PyList_GET_ITEM(chain, i);
        PyObject *state = PyTuple_GET_ITEM(entry, CH_STATE);
        PyObject *run_col = PyTuple_GET_ITEM(entry, CH_RUN);
        PyObject *parent = PyTuple_GET_ITEM(entry, CH_PARENT);
        Py_ssize_t solo, slot;
        if (as_ssize(PyTuple_GET_ITEM(entry, CH_SOLO), &solo) < 0 ||
            as_ssize(PyTuple_GET_ITEM(entry, CH_SLOT), &slot) < 0)
            return -1;
        int runnable = PyObject_IsTrue(COL(run_col, slot));
        if (runnable < 0)
            return -1;
        if (!runnable) {
            Py_ssize_t count, version;
            if (as_ssize(COL(state, ST_RC), &count) < 0 ||
                col_store(run_col, slot, PyLong_FromLong(1)) < 0 ||
                col_store(state, ST_RC, PyLong_FromSsize_t(count + 1)) < 0)
                return -1;
            PyObject *fin_col = PyTuple_GET_ITEM(entry, CH_FIN);
            PyObject *start_col = PyTuple_GET_ITEM(entry, CH_START);
            PyObject *start = COL(fin_col, slot);
            int behind = tag_lt(start, COL(state, ST_VT));
            if (behind < 0)
                return -1;
            if (behind)
                start = COL(state, ST_VT);
            Py_INCREF(start);
            if (col_store(start_col, slot, start) < 0)
                return -1;
            start = COL(start_col, slot);
            if (bump_version(PyTuple_GET_ITEM(entry, CH_VER), slot,
                             &version) < 0)
                return -1;
            if (solo < 0 &&
                push_entry(PyTuple_GET_ITEM(entry, CH_HEAP), start,
                           PyTuple_GET_ITEM(entry, CH_SEQ), slot,
                           version) < 0)
                return -1;
        }
        int parent_runnable = -1;
        PyObject *flag = PyObject_GetAttr(parent, str_runnable);
        if (flag == NULL)
            return -1;
        parent_runnable = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (parent_runnable < 0)
            return -1;
        if (parent_runnable)
            return 0;
        if (PyObject_SetAttr(parent, str_runnable, Py_True) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
sfqc_wake_chain(PyObject *Py_UNUSED(module), PyObject *chain)
{
    if (wake_chain_impl(chain) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
sleep_chain_impl(PyObject *chain)
{
    if (check_chain(chain) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(chain); i++) {
        PyObject *entry = PyList_GET_ITEM(chain, i);
        PyObject *state = PyTuple_GET_ITEM(entry, CH_STATE);
        PyObject *run_col = PyTuple_GET_ITEM(entry, CH_RUN);
        PyObject *parent = PyTuple_GET_ITEM(entry, CH_PARENT);
        Py_ssize_t slot;
        if (as_ssize(PyTuple_GET_ITEM(entry, CH_SLOT), &slot) < 0)
            return -1;
        int runnable = PyObject_IsTrue(COL(run_col, slot));
        if (runnable < 0)
            return -1;
        Py_ssize_t count;
        if (as_ssize(COL(state, ST_RC), &count) < 0)
            return -1;
        if (runnable) {
            Py_ssize_t version, in_service;
            if (col_store(run_col, slot, PyLong_FromLong(0)) < 0 ||
                bump_version(PyTuple_GET_ITEM(entry, CH_VER), slot,
                             &version) < 0)
                return -1;
            count -= 1;
            if (col_store(state, ST_RC, PyLong_FromSsize_t(count)) < 0 ||
                as_ssize(COL(state, ST_SRV), &in_service) < 0)
                return -1;
            if (in_service == slot &&
                col_store(state, ST_SRV, PyLong_FromSsize_t(-1)) < 0)
                return -1;
            if (count == 0) {
                int jump = tag_gt(COL(state, ST_MF), COL(state, ST_VT));
                if (jump < 0)
                    return -1;
                if (jump) {
                    PyObject *max_finish = COL(state, ST_MF);
                    Py_INCREF(max_finish);
                    if (col_store(state, ST_VT, max_finish) < 0)
                        return -1;
                }
            }
        }
        if (count > 0)
            return 0;
        if (PyObject_SetAttr(parent, str_runnable, Py_False) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
sfqc_sleep_chain(PyObject *Py_UNUSED(module), PyObject *chain)
{
    if (sleep_chain_impl(chain) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- machine turbo tick -------------------------------------------------
 *
 * machine_tick is the compiled mirror of the uniprocessor Machine's
 * burst-completion cycle: _on_burst_complete -> _account_burst ->
 * _finish_dispatch -> _maybe_dispatch -> _begin_burst.  Machine._begin_burst
 * installs it as the completion callback when nothing unusual is attached;
 * the tick re-checks every dynamic condition at fire time and bails back
 * to the exact Python method that owns the uncommon path:
 *
 *   - machine._bus.active (observed run)       -> Machine._on_burst_complete
 *   - schedsan wrapper / non-hierarchical top  -> per-call scheduler methods
 *   - non-SFQ leaf scheduler                   -> HierarchicalScheduler.*
 *   - costed dispatch model                    -> Machine._maybe_dispatch
 *   - interrupt service in progress            -> Machine._defer_dispatch
 *
 * The bail-outs happen at method-call granularity, so the observable
 * sequence of scheduler interactions (and therefore traces, schedstat
 * and SCHEDSAN's pick/charge pairing) is identical to the pure path.
 */

static PyObject *str_active, *str_bus, *str_engine, *str_now,
    *str_current, *str_stats, *str_burst_planned, *str_burst_compute_start,
    *str_burst_handle, *str_quantum_work_left, *str_quantum_work_done,
    *str_paused_until, *str_intr_busy_until, *str_remaining_work, *str_state,
    *str_leaf, *str_scheduler, *str_wakeup_handle, *str_held_mutexes,
    *str_work_done, *str_cpu_time, *str_busy_time, *str_dispatches,
    *str_context_switches, *str_segments_completed, *str_blocks,
    *str_exited_at, *str_capacity_ips, *str_default_quantum,
    *str_default_quantum_work, *str_quantum_attr, *str_structure, *str_root,
    *str_tree_version, *str_charge_chains, *str_charge_chains_version,
    *str_chain_for, *str_decision_depth, *str_last_ran, *str_cost_model,
    *str_turbo, *str_advance_workload, *str_maybe_dispatch,
    *str_on_burst_complete, *str_on_wakeup, *str_defer_dispatch,
    *str_release_held_mutexes, *str_retire, *str_charge,
    *str_thread_blocked, *str_equeue, *str_eheap, *str_eseq, *str_elive,
    *str_callback, *str_arg, *str_cancelled, *str_time, *str_priority,
    *str_seq_attr;
static PyObject *long_one, *long_neg_one, *long_second, *empty_tuple;

/* lazily resolved classes/objects (the repro modules that define them
 * import this extension, so they cannot be imported at module init) */
static int machine_ready = 0;
static PyObject *TS_RUNNABLE, *TS_RUNNING, *TS_SLEEPING, *TS_EXITED;
static PyTypeObject *HierType, *LeafNodeType, *SfqLeafType, *CostBaseType,
    *EventHandleType;
static PyObject *SimulationErrorC;
static PyObject *OUT_RUN, *OUT_SLEEP, *OUT_WAIT, *OUT_EXIT;
static PyObject *PRIO_COMPLETION, *PRIO_WAKEUP;

static PyObject *
import_attr(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return value;
}

static int
ensure_machine_state(void)
{
    if (machine_ready)
        return 0;
    PyObject *ts = import_attr("repro.threads.states", "ThreadState");
    if (ts == NULL)
        return -1;
    TS_RUNNABLE = PyObject_GetAttrString(ts, "RUNNABLE");
    TS_RUNNING = TS_RUNNABLE ? PyObject_GetAttrString(ts, "RUNNING") : NULL;
    TS_SLEEPING = TS_RUNNING ? PyObject_GetAttrString(ts, "SLEEPING") : NULL;
    TS_EXITED = TS_SLEEPING ? PyObject_GetAttrString(ts, "EXITED") : NULL;
    Py_DECREF(ts);
    if (TS_EXITED == NULL)
        return -1;
    HierType = (PyTypeObject *)import_attr("repro.core.hierarchy",
                                           "HierarchicalScheduler");
    if (HierType == NULL)
        return -1;
    LeafNodeType = (PyTypeObject *)import_attr("repro.core.node", "LeafNode");
    if (LeafNodeType == NULL)
        return -1;
    SfqLeafType = (PyTypeObject *)import_attr("repro.schedulers.sfq_leaf",
                                              "SfqScheduler");
    if (SfqLeafType == NULL)
        return -1;
    CostBaseType = (PyTypeObject *)import_attr("repro.cpu.costs",
                                               "SchedulingCostModel");
    if (CostBaseType == NULL)
        return -1;
    EventHandleType = (PyTypeObject *)import_attr("repro.sim.events",
                                                  "EventHandle");
    if (EventHandleType == NULL)
        return -1;
    SimulationErrorC = import_attr("repro.errors", "SimulationError");
    if (SimulationErrorC == NULL)
        return -1;
    OUT_RUN = import_attr("repro.cpu.machine", "_OUTCOME_RUN");
    if (OUT_RUN == NULL)
        return -1;
    OUT_SLEEP = import_attr("repro.cpu.machine", "_OUTCOME_SLEEP");
    if (OUT_SLEEP == NULL)
        return -1;
    OUT_WAIT = import_attr("repro.cpu.machine", "_OUTCOME_WAIT");
    if (OUT_WAIT == NULL)
        return -1;
    OUT_EXIT = import_attr("repro.cpu.machine", "_OUTCOME_EXIT");
    if (OUT_EXIT == NULL)
        return -1;
    PyObject *machine_cls = import_attr("repro.cpu.machine", "Machine");
    if (machine_cls == NULL)
        return -1;
    PRIO_COMPLETION = PyObject_GetAttrString(machine_cls,
                                             "PRIORITY_COMPLETION");
    PRIO_WAKEUP = PRIO_COMPLETION
        ? PyObject_GetAttrString(machine_cls, "PRIORITY_WAKEUP") : NULL;
    Py_DECREF(machine_cls);
    if (PRIO_WAKEUP == NULL)
        return -1;
    if (!PyType_Check((PyObject *)HierType) ||
        !PyType_Check((PyObject *)LeafNodeType) ||
        !PyType_Check((PyObject *)SfqLeafType) ||
        !PyType_Check((PyObject *)CostBaseType) ||
        !PyType_Check((PyObject *)EventHandleType)) {
        PyErr_SetString(PyExc_TypeError,
                        "repro scheduler classes are not types");
        return -1;
    }
    machine_ready = 1;
    return 0;
}

/* obj.<name> += delta (new int object; never in-place mutation) */
static int
attr_iadd(PyObject *obj, PyObject *name, PyObject *delta)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *updated = PyNumber_Add(old, delta);
    Py_DECREF(old);
    if (updated == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, updated);
    Py_DECREF(updated);
    return rc;
}

static int
attr_isub(PyObject *obj, PyObject *name, PyObject *delta)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *updated = PyNumber_Subtract(old, delta);
    Py_DECREF(old);
    if (updated == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, updated);
    Py_DECREF(updated);
    return rc;
}

/* call obj.<name>(...) discarding the result */
static int
call0(PyObject *obj, PyObject *name)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, name, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
call1(PyObject *obj, PyObject *name, PyObject *a)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, name, a, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
call2(PyObject *obj, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, name, a, b, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static int
call3(PyObject *obj, PyObject *name, PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, name, a, b, c, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

enum { OC_RUN, OC_SLEEP, OC_WAIT, OC_EXIT, OC_OTHER };

static int
outcome_code(PyObject *outcome)
{
    if (outcome == OUT_RUN)
        return OC_RUN;
    if (outcome == OUT_SLEEP)
        return OC_SLEEP;
    if (outcome == OUT_WAIT)
        return OC_WAIT;
    if (outcome == OUT_EXIT)
        return OC_EXIT;
    if (PyUnicode_Check(outcome)) {
        if (PyUnicode_CompareWithASCIIString(outcome, "run") == 0)
            return OC_RUN;
        if (PyUnicode_CompareWithASCIIString(outcome, "sleep") == 0)
            return OC_SLEEP;
        if (PyUnicode_CompareWithASCIIString(outcome, "wait") == 0)
            return OC_WAIT;
        if (PyUnicode_CompareWithASCIIString(outcome, "exit") == 0)
            return OC_EXIT;
    }
    return OC_OTHER; /* mirrors the Python else-branches */
}

/* HierarchicalScheduler._chain_for, with the cache hit done inline */
static PyObject *
chain_for(PyObject *sched, PyObject *leaf)
{
    PyObject *cached_version = PyObject_GetAttr(sched,
                                                str_charge_chains_version);
    if (cached_version == NULL)
        return NULL;
    PyObject *structure = PyObject_GetAttr(sched, str_structure);
    if (structure == NULL) {
        Py_DECREF(cached_version);
        return NULL;
    }
    PyObject *tree_version = PyObject_GetAttr(structure, str_tree_version);
    Py_DECREF(structure);
    if (tree_version == NULL) {
        Py_DECREF(cached_version);
        return NULL;
    }
    int fresh = PyObject_RichCompareBool(cached_version, tree_version, Py_EQ);
    Py_DECREF(cached_version);
    Py_DECREF(tree_version);
    if (fresh < 0)
        return NULL;
    if (fresh) {
        PyObject *chains = PyObject_GetAttr(sched, str_charge_chains);
        if (chains == NULL)
            return NULL;
        PyObject *key = PyLong_FromVoidPtr(leaf); /* == id(leaf) */
        if (key == NULL) {
            Py_DECREF(chains);
            return NULL;
        }
        PyObject *chain = PyDict_GetItemWithError(chains, key); /* borrowed */
        Py_DECREF(key);
        Py_DECREF(chains);
        if (chain != NULL) {
            Py_INCREF(chain);
            return chain;
        }
        if (PyErr_Occurred())
            return NULL;
    }
    /* stale cache or miss: the Python method rebuilds and re-caches */
    return PyObject_CallMethodObjArgs(sched, str_chain_for, leaf, NULL);
}

/* HierarchicalScheduler.charge for the traced-off path; bails to the
 * scheduler's own charge() for anything that is not an SFQ leaf under
 * the hierarchical scheduler. */
static int
h_charge(PyObject *sched, PyObject *thread, PyObject *work, PyObject *now)
{
    if (Py_TYPE(sched) != HierType)
        return call3(sched, str_charge, thread, work, now);
    PyObject *leaf = PyObject_GetAttr(thread, str_leaf);
    if (leaf == NULL)
        return -1;
    if (Py_TYPE(leaf) != LeafNodeType) {
        Py_DECREF(leaf);
        return call3(sched, str_charge, thread, work, now);
    }
    PyObject *lsched = PyObject_GetAttr(leaf, str_scheduler);
    if (lsched == NULL) {
        Py_DECREF(leaf);
        return -1;
    }
    if (Py_TYPE(lsched) != SfqLeafType) {
        Py_DECREF(lsched);
        Py_DECREF(leaf);
        return call3(sched, str_charge, thread, work, now);
    }
    PyObject *lqueue = PyObject_GetAttr(lsched, str_queue);
    Py_DECREF(lsched);
    if (lqueue == NULL) {
        Py_DECREF(leaf);
        return -1;
    }
    int rc = queue_charge_impl(lqueue, thread, work);
    Py_DECREF(lqueue);
    if (rc < 0) {
        Py_DECREF(leaf);
        return -1;
    }
    PyObject *chain = chain_for(sched, leaf);
    Py_DECREF(leaf);
    if (chain == NULL)
        return -1;
    rc = charge_chain_impl(chain, work);
    Py_DECREF(chain);
    return rc;
}

/* HierarchicalScheduler.thread_blocked + _sleep_if_idle */
static int
h_thread_blocked(PyObject *sched, PyObject *thread, PyObject *now)
{
    if (Py_TYPE(sched) != HierType)
        return call2(sched, str_thread_blocked, thread, now);
    PyObject *leaf = PyObject_GetAttr(thread, str_leaf);
    if (leaf == NULL)
        return -1;
    if (Py_TYPE(leaf) != LeafNodeType) {
        Py_DECREF(leaf);
        return call2(sched, str_thread_blocked, thread, now);
    }
    PyObject *lsched = PyObject_GetAttr(leaf, str_scheduler);
    if (lsched == NULL) {
        Py_DECREF(leaf);
        return -1;
    }
    if (Py_TYPE(lsched) != SfqLeafType) {
        Py_DECREF(lsched);
        Py_DECREF(leaf);
        return call2(sched, str_thread_blocked, thread, now);
    }
    PyObject *lqueue = PyObject_GetAttr(lsched, str_queue);
    Py_DECREF(lsched);
    if (lqueue == NULL) {
        Py_DECREF(leaf);
        return -1;
    }
    if (queue_set_blocked_impl(lqueue, thread) < 0) {
        Py_DECREF(lqueue);
        Py_DECREF(leaf);
        return -1;
    }
    /* _sleep_if_idle: leaf.runnable and not leaf.scheduler.has_runnable() */
    PyObject *flag = PyObject_GetAttr(leaf, str_runnable);
    if (flag == NULL) {
        Py_DECREF(lqueue);
        Py_DECREF(leaf);
        return -1;
    }
    int leaf_runnable = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (leaf_runnable < 0) {
        Py_DECREF(lqueue);
        Py_DECREF(leaf);
        return -1;
    }
    int rc = 0;
    if (leaf_runnable) {
        PyObject *cview;
        if (get_cview(lqueue, &cview) < 0) {
            rc = -1;
        }
        else {
            Py_ssize_t runnable_count;
            rc = as_ssize(COL(COL(cview, CV_STATE), ST_RC), &runnable_count);
            Py_DECREF(cview);
            if (rc == 0 && runnable_count == 0) {
                if (PyObject_SetAttr(leaf, str_runnable, Py_False) < 0) {
                    rc = -1;
                }
                else {
                    PyObject *chain = chain_for(sched, leaf);
                    if (chain == NULL)
                        rc = -1;
                    else {
                        rc = sleep_chain_impl(chain);
                        Py_DECREF(chain);
                    }
                }
            }
        }
    }
    Py_DECREF(lqueue);
    Py_DECREF(leaf);
    return rc;
}

/* Simulator.at + EventQueue.push: schedule callback(arg) and return a
 * new reference to the EventHandle. */
static PyObject *
sched_at(PyObject *engine, PyObject *time, PyObject *callback, PyObject *arg,
         PyObject *priority)
{
    PyObject *now = PyObject_GetAttr(engine, str_now);
    if (now == NULL)
        return NULL;
    int past = PyObject_RichCompareBool(time, now, Py_LT);
    if (past != 0) {
        if (past > 0)
            PyErr_Format(SimulationErrorC,
                         "cannot schedule event in the past: t=%S < now=%S",
                         time, now);
        Py_DECREF(now);
        return NULL;
    }
    Py_DECREF(now);
    int negative = PyObject_RichCompareBool(time, long_zero, Py_LT);
    if (negative != 0) {
        if (negative > 0)
            PyErr_Format(SimulationErrorC,
                         "cannot schedule event at negative time %S", time);
        return NULL;
    }
    PyObject *queue = PyObject_GetAttr(engine, str_equeue);
    if (queue == NULL)
        return NULL;
    PyObject *seq = PyObject_GetAttr(queue, str_eseq);
    if (seq == NULL)
        goto fail_queue;
    {
        PyObject *next_seq = PyNumber_Add(seq, long_one);
        if (next_seq == NULL)
            goto fail_seq;
        int rc = PyObject_SetAttr(queue, str_eseq, next_seq);
        Py_DECREF(next_seq);
        if (rc < 0)
            goto fail_seq;
    }
    {
        PyObject *handle = EventHandleType->tp_new(EventHandleType,
                                                   empty_tuple, NULL);
        if (handle == NULL)
            goto fail_seq;
        if (PyObject_SetAttr(handle, str_time, time) < 0 ||
            PyObject_SetAttr(handle, str_priority, priority) < 0 ||
            PyObject_SetAttr(handle, str_seq_attr, seq) < 0 ||
            PyObject_SetAttr(handle, str_callback, callback) < 0 ||
            PyObject_SetAttr(handle, str_arg, arg) < 0 ||
            PyObject_SetAttr(handle, str_cancelled, Py_False) < 0) {
            Py_DECREF(handle);
            goto fail_seq;
        }
        PyObject *entry = PyTuple_New(4);
        if (entry == NULL) {
            Py_DECREF(handle);
            goto fail_seq;
        }
        Py_INCREF(time);
        PyTuple_SET_ITEM(entry, 0, time);
        Py_INCREF(priority);
        PyTuple_SET_ITEM(entry, 1, priority);
        Py_INCREF(seq);
        PyTuple_SET_ITEM(entry, 2, seq);
        Py_INCREF(handle);
        PyTuple_SET_ITEM(entry, 3, handle);
        PyObject *heap = PyObject_GetAttr(queue, str_eheap);
        if (heap == NULL) {
            Py_DECREF(entry);
            Py_DECREF(handle);
            goto fail_seq;
        }
        int rc = heap_push_cmp(heap, entry, event_entry_lt);
        Py_DECREF(heap);
        Py_DECREF(entry);
        if (rc < 0 || attr_iadd(queue, str_elive, long_one) < 0) {
            Py_DECREF(handle);
            goto fail_seq;
        }
        Py_DECREF(seq);
        Py_DECREF(queue);
        return handle;
    }
fail_seq:
    Py_DECREF(seq);
fail_queue:
    Py_DECREF(queue);
    return NULL;
}

/* Machine._schedule_wakeup with tracing known to be off: schedule
 * _on_wakeup and store the handle on the thread. */
static int
schedule_wake(PyObject *machine, PyObject *engine, PyObject *thread,
              PyObject *wake)
{
    PyObject *on_wakeup = PyObject_GetAttr(machine, str_on_wakeup);
    if (on_wakeup == NULL)
        return -1;
    PyObject *handle = sched_at(engine, wake, on_wakeup, thread, PRIO_WAKEUP);
    Py_DECREF(on_wakeup);
    if (handle == NULL)
        return -1;
    int rc = PyObject_SetAttr(thread, str_wakeup_handle, handle);
    Py_DECREF(handle);
    return rc;
}

/* _account_burst(self._burst_planned), with tracing known to be off */
static int
tick_account(PyObject *machine, PyObject *cur, PyObject *now)
{
    PyObject *planned = PyObject_GetAttr(machine, str_burst_planned);
    if (planned == NULL)
        return -1;
    int executed = PyObject_RichCompareBool(planned, long_zero, Py_GT);
    if (executed <= 0) {
        Py_DECREF(planned);
        return executed; /* 0: nothing to book; <0: comparison error */
    }
    PyObject *remaining = PyObject_GetAttr(cur, str_remaining_work);
    if (remaining == NULL)
        goto fail;
    {
        PyObject *updated = PyNumber_Subtract(remaining, planned);
        Py_DECREF(remaining);
        if (updated == NULL)
            goto fail;
        int negative = PyObject_RichCompareBool(updated, long_zero, Py_LT);
        if (negative < 0) {
            Py_DECREF(updated);
            goto fail;
        }
        if (negative) {
            Py_DECREF(updated);
            PyErr_SetString(SimulationErrorC,
                            "burst executed more work than remained");
            goto fail;
        }
        int rc = PyObject_SetAttr(cur, str_remaining_work, updated);
        Py_DECREF(updated);
        if (rc < 0)
            goto fail;
    }
    if (attr_isub(machine, str_quantum_work_left, planned) < 0 ||
        attr_iadd(machine, str_quantum_work_done, planned) < 0)
        goto fail;
    {
        PyObject *compute_start = PyObject_GetAttr(machine,
                                                   str_burst_compute_start);
        if (compute_start == NULL)
            goto fail;
        PyObject *elapsed = PyNumber_Subtract(now, compute_start);
        Py_DECREF(compute_start);
        if (elapsed == NULL)
            goto fail;
        int negative = PyObject_RichCompareBool(elapsed, long_zero, Py_LT);
        if (negative < 0) {
            Py_DECREF(elapsed);
            goto fail;
        }
        if (negative) { /* max(0, ...) */
            Py_DECREF(elapsed);
            elapsed = long_zero;
            Py_INCREF(elapsed);
        }
        PyObject *tstats = PyObject_GetAttr(cur, str_stats);
        if (tstats == NULL) {
            Py_DECREF(elapsed);
            goto fail;
        }
        int rc = attr_iadd(tstats, str_work_done, planned);
        if (rc == 0)
            rc = attr_iadd(tstats, str_cpu_time, elapsed);
        Py_DECREF(tstats);
        if (rc == 0) {
            PyObject *mstats = PyObject_GetAttr(machine, str_stats);
            if (mstats == NULL)
                rc = -1;
            else {
                rc = attr_iadd(mstats, str_busy_time, elapsed);
                Py_DECREF(mstats);
            }
        }
        Py_DECREF(elapsed);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(planned);
    return 0;
fail:
    Py_DECREF(planned);
    return -1;
}

/* The dispatch half of the tick (Machine._maybe_dispatch +
 * _begin_burst with a zero-cost model).  Returns 0 on success (which
 * includes the graceful fallbacks to Python) or -1 with an exception. */
static int
tick_dispatch(PyObject *machine, PyObject *engine, PyObject *sched,
              PyObject *now)
{
    PyObject *check = PyObject_GetAttr(machine, str_current);
    if (check == NULL)
        return -1;
    int busy = (check != Py_None);
    Py_DECREF(check);
    if (busy)
        return 0;
    PyObject *busy_until = PyObject_GetAttr(machine, str_intr_busy_until);
    if (busy_until == NULL)
        return -1;
    int in_service = PyObject_RichCompareBool(now, busy_until, Py_LT);
    if (in_service < 0) {
        Py_DECREF(busy_until);
        return -1;
    }
    if (in_service) {
        int rc = call1(machine, str_defer_dispatch, busy_until);
        Py_DECREF(busy_until);
        return rc;
    }
    Py_DECREF(busy_until);
    /* a costed model or a wrapped/non-hierarchical scheduler: Python owns
     * the full decision */
    PyObject *cost_model = PyObject_GetAttr(machine, str_cost_model);
    if (cost_model == NULL)
        return -1;
    int zero_cost = (Py_TYPE(cost_model) == CostBaseType);
    Py_DECREF(cost_model);
    if (!zero_cost || Py_TYPE(sched) != HierType)
        return call0(machine, str_maybe_dispatch);
    PyObject *structure = PyObject_GetAttr(sched, str_structure);
    if (structure == NULL)
        return -1;
    PyObject *root = PyObject_GetAttr(structure, str_root);
    Py_DECREF(structure);
    if (root == NULL)
        return -1;
    {
        PyObject *flag = PyObject_GetAttr(root, str_runnable);
        if (flag == NULL) {
            Py_DECREF(root);
            return -1;
        }
        int root_runnable = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (root_runnable < 0) {
            Py_DECREF(root);
            return -1;
        }
        if (!root_runnable) {
            /* pick_next -> None and has_runnable() agrees: nothing to do */
            Py_DECREF(root);
            return 0;
        }
    }
    Py_ssize_t depth = 0;
    PyObject *leaf = pick_leaf_walk(root, LeafNodeType, &depth);
    Py_DECREF(root);
    if (leaf == NULL)
        return -1;
    if (leaf == Py_None) {
        /* empty queue mid-descent: the Python re-walk raises the
         * standard diagnostic (the descent so far is idempotent) */
        Py_DECREF(leaf);
        return call0(machine, str_maybe_dispatch);
    }
    PyObject *lsched = PyObject_GetAttr(leaf, str_scheduler);
    if (lsched == NULL) {
        Py_DECREF(leaf);
        return -1;
    }
    if (Py_TYPE(lsched) != SfqLeafType) {
        Py_DECREF(lsched);
        Py_DECREF(leaf);
        return call0(machine, str_maybe_dispatch);
    }
    PyObject *lqueue = PyObject_GetAttr(lsched, str_queue);
    if (lqueue == NULL) {
        Py_DECREF(lsched);
        Py_DECREF(leaf);
        return -1;
    }
    /* scheduler.quantum_for(thread) inlined for the verified SFQ leaf:
     * nothing can rebind the leaf quantum between here and burst start */
    PyObject *quantum_ns = PyObject_GetAttr(lsched, str_quantum_attr);
    Py_DECREF(lsched);
    Py_DECREF(leaf);
    if (quantum_ns == NULL) {
        Py_DECREF(lqueue);
        return -1;
    }
    PyObject *cview;
    if (get_cview(lqueue, &cview) < 0) {
        Py_DECREF(lqueue);
        Py_DECREF(quantum_ns);
        return -1;
    }
    Py_DECREF(lqueue);
    PyObject *thread = pick_from_cview(cview); /* borrowed from columns */
    if (thread == NULL) {
        Py_DECREF(cview);
        Py_DECREF(quantum_ns);
        return -1;
    }
    Py_INCREF(thread);
    Py_DECREF(cview);
    if (thread == Py_None) {
        /* leaf marked runnable with no thread: Python raises */
        Py_DECREF(thread);
        Py_DECREF(quantum_ns);
        return call0(machine, str_maybe_dispatch);
    }
    {
        PyObject *depth_obj = PyLong_FromSsize_t(depth);
        if (depth_obj == NULL)
            goto fail_quantum;
        int rc = PyObject_SetAttr(sched, str_decision_depth, depth_obj);
        Py_DECREF(depth_obj);
        if (rc < 0)
            goto fail_quantum;
    }
    {
        PyObject *state = PyObject_GetAttr(thread, str_state);
        if (state == NULL)
            goto fail_quantum;
        int runnable = (state == TS_RUNNABLE);
        Py_DECREF(state);
        if (!runnable) {
            /* Python re-picks (idempotent) and raises the contract error */
            Py_DECREF(thread);
            Py_DECREF(quantum_ns);
            return call0(machine, str_maybe_dispatch);
        }
    }
    int switched;
    {
        PyObject *last = PyObject_GetAttr(machine, str_last_ran);
        if (last == NULL)
            goto fail_quantum;
        switched = (thread != last);
        Py_DECREF(last);
    }
    if (PyObject_SetAttr(thread, str_state, TS_RUNNING) < 0 ||
        PyObject_SetAttr(machine, str_current, thread) < 0 ||
        PyObject_SetAttr(machine, str_last_ran, thread) < 0)
        goto fail_quantum;
    {
        PyObject *mstats = PyObject_GetAttr(machine, str_stats);
        if (mstats == NULL)
            goto fail_quantum;
        int rc = attr_iadd(mstats, str_dispatches, long_one);
        if (rc == 0 && switched)
            rc = attr_iadd(mstats, str_context_switches, long_one);
        Py_DECREF(mstats);
        if (rc < 0)
            goto fail_quantum;
        PyObject *tstats = PyObject_GetAttr(thread, str_stats);
        if (tstats == NULL)
            goto fail_quantum;
        rc = attr_iadd(tstats, str_dispatches, long_one);
        Py_DECREF(tstats);
        if (rc < 0)
            goto fail_quantum;
        /* stats.overhead_time += 0 elided: the zero-cost model was
         * verified above, so the value cannot change */
    }
    PyObject *capacity = PyObject_GetAttr(machine, str_capacity_ips);
    if (capacity == NULL)
        goto fail_quantum;
    PyObject *quantum_work = NULL, *planned = NULL;
    if (quantum_ns == Py_None) {
        Py_DECREF(quantum_ns);
        quantum_ns = PyObject_GetAttr(machine, str_default_quantum);
        if (quantum_ns == NULL)
            goto fail_capacity;
        quantum_work = PyObject_GetAttr(machine, str_default_quantum_work);
        if (quantum_work == NULL)
            goto fail_capacity;
    }
    else {
        /* work_from_time(quantum_ns, capacity), mirrored */
        int negative = PyObject_RichCompareBool(quantum_ns, long_zero, Py_LT);
        if (negative < 0)
            goto fail_capacity;
        if (negative) {
            PyErr_Format(PyExc_ValueError,
                         "duration must be non-negative, got %S", quantum_ns);
            goto fail_capacity;
        }
        PyObject *product = PyNumber_Multiply(quantum_ns, capacity);
        if (product == NULL)
            goto fail_capacity;
        quantum_work = PyNumber_FloorDivide(product, long_second);
        Py_DECREF(product);
        if (quantum_work == NULL)
            goto fail_capacity;
    }
    {
        int positive = PyObject_RichCompareBool(quantum_work, long_zero,
                                                Py_GT);
        if (positive < 0)
            goto fail_capacity;
        if (!positive) {
            PyErr_Format(SimulationErrorC,
                         "quantum of %S ns yields zero instructions at "
                         "%S ips", quantum_ns, capacity);
            goto fail_capacity;
        }
    }
    if (PyObject_SetAttr(machine, str_quantum_work_left, quantum_work) < 0 ||
        PyObject_SetAttr(machine, str_quantum_work_done, long_zero) < 0)
        goto fail_capacity;
    Py_DECREF(quantum_ns);
    quantum_ns = NULL;
    /* _begin_burst(0) */
    {
        PyObject *remaining = PyObject_GetAttr(thread, str_remaining_work);
        if (remaining == NULL)
            goto fail_capacity;
        int rem_smaller = PyObject_RichCompareBool(remaining, quantum_work,
                                                   Py_LT);
        if (rem_smaller < 0) {
            Py_DECREF(remaining);
            goto fail_capacity;
        }
        planned = rem_smaller ? remaining : quantum_work;
        Py_INCREF(planned);
        Py_DECREF(remaining);
        Py_DECREF(quantum_work);
        quantum_work = NULL;
    }
    {
        int positive = PyObject_RichCompareBool(planned, long_zero, Py_GT);
        if (positive < 0)
            goto fail_planned;
        if (!positive) {
            PyErr_Format(SimulationErrorC,
                         "attempted to start an empty burst for %R", thread);
            goto fail_planned;
        }
    }
    if (PyObject_SetAttr(machine, str_burst_planned, planned) < 0 ||
        PyObject_SetAttr(machine, str_burst_compute_start, now) < 0)
        goto fail_planned;
    {
        /* duration = -((-planned * SECOND) // capacity)  (ceil division) */
        PyObject *negated = PyNumber_Negative(planned);
        if (negated == NULL)
            goto fail_planned;
        PyObject *product = PyNumber_Multiply(negated, long_second);
        Py_DECREF(negated);
        if (product == NULL)
            goto fail_planned;
        PyObject *quotient = PyNumber_FloorDivide(product, capacity);
        Py_DECREF(product);
        if (quotient == NULL)
            goto fail_planned;
        PyObject *duration = PyNumber_Negative(quotient);
        Py_DECREF(quotient);
        if (duration == NULL)
            goto fail_planned;
        PyObject *fire_at = PyNumber_Add(now, duration);
        Py_DECREF(duration);
        if (fire_at == NULL)
            goto fail_planned;
        PyObject *turbo = PyObject_GetAttr(machine, str_turbo);
        if (turbo == NULL) {
            Py_DECREF(fire_at);
            goto fail_planned;
        }
        PyObject *handle = sched_at(engine, fire_at, turbo, machine,
                                    PRIO_COMPLETION);
        Py_DECREF(turbo);
        Py_DECREF(fire_at);
        if (handle == NULL)
            goto fail_planned;
        int rc = PyObject_SetAttr(machine, str_burst_handle, handle);
        Py_DECREF(handle);
        if (rc < 0)
            goto fail_planned;
    }
    Py_DECREF(planned);
    Py_DECREF(capacity);
    Py_DECREF(thread);
    return 0;
fail_planned:
    Py_XDECREF(planned);
fail_capacity:
    Py_XDECREF(quantum_work);
    Py_DECREF(capacity);
fail_quantum:
    Py_XDECREF(quantum_ns);
    Py_DECREF(thread);
    return -1;
}

/* machine._bus.active: the machine's one observation gate.  Its bus is
 * the process bus, or a machine-private one that always has subscribers,
 * so this also covers every process-bus emit site the Python path
 * reaches.  Returns 1/0, or -1 with an exception set. */
static int
machine_observed(PyObject *machine)
{
    PyObject *bus = PyObject_GetAttr(machine, str_bus);
    if (bus == NULL)
        return -1;
    PyObject *flag = PyObject_GetAttr(bus, str_active);
    Py_DECREF(bus);
    if (flag == NULL)
        return -1;
    int observed = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return observed;
}

static PyObject *
machine_tick_impl(PyObject *machine)
{
    if (ensure_machine_state() < 0)
        return NULL;
    /* dynamic bail-out: an observed run owns the Python path */
    int observed = machine_observed(machine);
    if (observed < 0)
        return NULL;
    if (observed)
        return PyObject_CallMethodObjArgs(machine, str_on_burst_complete,
                                          NULL);
    PyObject *engine = NULL, *now = NULL, *cur = NULL, *sched = NULL;
    PyObject *wake = NULL;
    int outcome = OC_RUN;
    engine = PyObject_GetAttr(machine, str_engine);
    if (engine == NULL)
        return NULL;
    now = PyObject_GetAttr(engine, str_now);
    if (now == NULL)
        goto fail;
    cur = PyObject_GetAttr(machine, str_current);
    if (cur == NULL)
        goto fail;
    if (cur == Py_None) {
        /* no dispatch in flight: the Python handler owns the assertion */
        Py_DECREF(engine);
        Py_DECREF(now);
        Py_DECREF(cur);
        return PyObject_CallMethodObjArgs(machine, str_on_burst_complete,
                                          NULL);
    }
    if (PyObject_SetAttr(machine, str_burst_handle, Py_None) < 0)
        goto fail;
    if (tick_account(machine, cur, now) < 0)
        goto fail;
    /* ---- _finish_dispatch ------------------------------------------- */
    if (PyObject_SetAttr(machine, str_current, Py_None) < 0 ||
        PyObject_SetAttr(machine, str_paused_until, long_neg_one) < 0)
        goto fail;
    {
        PyObject *remaining = PyObject_GetAttr(cur, str_remaining_work);
        if (remaining == NULL)
            goto fail;
        int has_work = PyObject_RichCompareBool(remaining, long_zero, Py_GT);
        Py_DECREF(remaining);
        if (has_work < 0)
            goto fail;
        if (has_work) {
            outcome = OC_RUN;
            wake = Py_None;
            Py_INCREF(wake);
        }
        else {
            PyObject *tstats = PyObject_GetAttr(cur, str_stats);
            if (tstats == NULL)
                goto fail;
            int rc = attr_iadd(tstats, str_segments_completed, long_one);
            Py_DECREF(tstats);
            if (rc < 0)
                goto fail;
            PyObject *result = PyObject_CallMethodObjArgs(
                machine, str_advance_workload, cur, NULL);
            if (result == NULL)
                goto fail;
            if (!PyTuple_Check(result) || PyTuple_GET_SIZE(result) != 2) {
                Py_DECREF(result);
                PyErr_SetString(PyExc_TypeError,
                                "_advance_workload must return "
                                "(outcome, wake_time)");
                goto fail;
            }
            outcome = outcome_code(PyTuple_GET_ITEM(result, 0));
            wake = PyTuple_GET_ITEM(result, 1);
            Py_INCREF(wake);
            Py_DECREF(result);
        }
    }
    /* state first, then charge (see Machine._finish_dispatch) */
    if (outcome == OC_RUN) {
        if (PyObject_SetAttr(cur, str_state, TS_RUNNABLE) < 0)
            goto fail;
    }
    else if (outcome == OC_SLEEP || outcome == OC_WAIT) {
        if (PyObject_SetAttr(cur, str_state, TS_SLEEPING) < 0)
            goto fail;
        PyObject *tstats = PyObject_GetAttr(cur, str_stats);
        if (tstats == NULL)
            goto fail;
        int rc = attr_iadd(tstats, str_blocks, long_one);
        Py_DECREF(tstats);
        if (rc < 0)
            goto fail;
    }
    else {
        if (PyObject_SetAttr(cur, str_state, TS_EXITED) < 0)
            goto fail;
        PyObject *tstats = PyObject_GetAttr(cur, str_stats);
        if (tstats == NULL)
            goto fail;
        int rc = PyObject_SetAttr(tstats, str_exited_at, now);
        Py_DECREF(tstats);
        if (rc < 0)
            goto fail;
    }
    sched = PyObject_GetAttr(machine, str_scheduler);
    if (sched == NULL)
        goto fail;
    {
        PyObject *quantum_done = PyObject_GetAttr(machine,
                                                  str_quantum_work_done);
        if (quantum_done == NULL)
            goto fail;
        int charged = PyObject_RichCompareBool(quantum_done, long_zero,
                                               Py_GT);
        if (charged > 0)
            charged = (h_charge(sched, cur, quantum_done, now) < 0) ? -1 : 0;
        Py_DECREF(quantum_done);
        if (charged < 0)
            goto fail;
    }
    if (PyObject_SetAttr(machine, str_quantum_work_done, long_zero) < 0 ||
        PyObject_SetAttr(machine, str_quantum_work_left, long_zero) < 0)
        goto fail;
    if (outcome == OC_SLEEP) {
        if (h_thread_blocked(sched, cur, now) < 0)
            goto fail;
        if (schedule_wake(machine, engine, cur, wake) < 0)
            goto fail;
    }
    else if (outcome == OC_WAIT) {
        if (h_thread_blocked(sched, cur, now) < 0)
            goto fail;
    }
    else if (outcome == OC_EXIT) {
        PyObject *held = PyObject_GetAttr(cur, str_held_mutexes);
        if (held == NULL)
            goto fail;
        int holding = PyObject_IsTrue(held);
        Py_DECREF(held);
        if (holding < 0)
            goto fail;
        if (holding && call1(machine, str_release_held_mutexes, cur) < 0)
            goto fail;
        if (call2(sched, str_retire, cur, now) < 0)
            goto fail;
    }
    if (tick_dispatch(machine, engine, sched, now) < 0)
        goto fail;
    Py_DECREF(engine);
    Py_DECREF(now);
    Py_DECREF(cur);
    Py_DECREF(sched);
    Py_DECREF(wake);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(engine);
    Py_XDECREF(now);
    Py_XDECREF(cur);
    Py_XDECREF(sched);
    Py_XDECREF(wake);
    return NULL;
}

static PyObject *
sfqc_machine_tick(PyObject *Py_UNUSED(module), PyObject *machine)
{
    return machine_tick_impl(machine);
}

/* ---- module ------------------------------------------------------------- */

static PyMethodDef sfqc_methods[] = {
    {"queue_pick", (PyCFunction)sfqc_queue_pick, METH_O,
     "SfqQueue.pick over the arena columns (compiled engine)."},
    {"queue_charge", (PyCFunction)(void (*)(void))sfqc_queue_charge,
     METH_FASTCALL,
     "SfqQueue.charge(queue, entity, length) (compiled engine)."},
    {"queue_set_runnable",
     (PyCFunction)(void (*)(void))sfqc_queue_set_runnable, METH_FASTCALL,
     "SfqQueue.set_runnable(queue, entity) (compiled engine)."},
    {"queue_set_blocked",
     (PyCFunction)(void (*)(void))sfqc_queue_set_blocked, METH_FASTCALL,
     "SfqQueue.set_blocked(queue, entity) (compiled engine)."},
    {"pick_leaf", (PyCFunction)(void (*)(void))sfqc_pick_leaf,
     METH_FASTCALL,
     "Min-start descent from root to a leaf (compiled engine)."},
    {"charge_chain", (PyCFunction)(void (*)(void))sfqc_charge_chain,
     METH_FASTCALL,
     "Charge every level of a precomputed ancestor chain."},
    {"wake_chain", (PyCFunction)sfqc_wake_chain, METH_O,
     "Propagate leaf eligibility up a precomputed ancestor chain."},
    {"sleep_chain", (PyCFunction)sfqc_sleep_chain, METH_O,
     "Propagate leaf idleness up a precomputed ancestor chain."},
    {"machine_tick", (PyCFunction)sfqc_machine_tick, METH_O,
     "Machine burst-completion cycle: account, finish, re-dispatch."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sfqc_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._sfqc",
    "Compiled SFQ hot-path engine (see repro/core/engine.py).",
    -1,
    sfqc_methods,
    NULL, NULL, NULL, NULL,
};

static struct {
    PyObject **slot;
    const char *text;
} intern_table[] = {
    {&str_cview, "_cview"},
    {&str_weight, "weight"},
    {&str_advance, "advance"},
    {&str_runnable, "runnable"},
    {&str_queue, "queue"},
    {&str_active, "active"},
    {&str_bus, "_bus"},
    {&str_engine, "engine"},
    {&str_now, "now"},
    {&str_current, "current"},
    {&str_stats, "stats"},
    {&str_burst_planned, "_burst_planned"},
    {&str_burst_compute_start, "_burst_compute_start"},
    {&str_burst_handle, "_burst_handle"},
    {&str_quantum_work_left, "_quantum_work_left"},
    {&str_quantum_work_done, "_quantum_work_done"},
    {&str_paused_until, "_paused_until"},
    {&str_intr_busy_until, "_intr_busy_until"},
    {&str_remaining_work, "remaining_work"},
    {&str_state, "state"},
    {&str_leaf, "leaf"},
    {&str_scheduler, "scheduler"},
    {&str_wakeup_handle, "wakeup_handle"},
    {&str_held_mutexes, "held_mutexes"},
    {&str_work_done, "work_done"},
    {&str_cpu_time, "cpu_time"},
    {&str_busy_time, "busy_time"},
    {&str_dispatches, "dispatches"},
    {&str_context_switches, "context_switches"},
    {&str_segments_completed, "segments_completed"},
    {&str_blocks, "blocks"},
    {&str_exited_at, "exited_at"},
    {&str_capacity_ips, "capacity_ips"},
    {&str_default_quantum, "default_quantum"},
    {&str_default_quantum_work, "_default_quantum_work"},
    {&str_quantum_attr, "_quantum"},
    {&str_structure, "structure"},
    {&str_root, "root"},
    {&str_tree_version, "tree_version"},
    {&str_charge_chains, "_charge_chains"},
    {&str_charge_chains_version, "_charge_chains_version"},
    {&str_chain_for, "_chain_for"},
    {&str_decision_depth, "_decision_depth"},
    {&str_last_ran, "_last_ran"},
    {&str_cost_model, "cost_model"},
    {&str_turbo, "_turbo"},
    {&str_advance_workload, "_advance_workload"},
    {&str_maybe_dispatch, "_maybe_dispatch"},
    {&str_on_burst_complete, "_on_burst_complete"},
    {&str_on_wakeup, "_on_wakeup"},
    {&str_defer_dispatch, "_defer_dispatch"},
    {&str_release_held_mutexes, "_release_held_mutexes"},
    {&str_retire, "retire"},
    {&str_charge, "charge"},
    {&str_thread_blocked, "thread_blocked"},
    {&str_equeue, "_queue"},
    {&str_eheap, "_heap"},
    {&str_eseq, "_seq"},
    {&str_elive, "_live"},
    {&str_callback, "callback"},
    {&str_arg, "arg"},
    {&str_cancelled, "_cancelled"},
    {&str_time, "time"},
    {&str_priority, "priority"},
    {&str_seq_attr, "seq"},
    {NULL, NULL},
};

PyMODINIT_FUNC
PyInit__sfqc(void)
{
    for (size_t i = 0; intern_table[i].slot != NULL; i++) {
        *intern_table[i].slot =
            PyUnicode_InternFromString(intern_table[i].text);
        if (*intern_table[i].slot == NULL)
            return NULL;
    }
    long_zero = PyLong_FromLong(0);
    long_one = PyLong_FromLong(1);
    long_neg_one = PyLong_FromLong(-1);
    long_second = PyLong_FromLong(1000000000L);
    empty_tuple = PyTuple_New(0);
    if (long_zero == NULL || long_one == NULL || long_neg_one == NULL ||
        long_second == NULL || empty_tuple == NULL)
        return NULL;
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return NULL;
    SchedulingError = PyObject_GetAttrString(errors, "SchedulingError");
    Py_DECREF(errors);
    if (SchedulingError == NULL)
        return NULL;
    return PyModule_Create(&sfqc_module);
}
