//===--- Impls.cpp - the studied implementations (Table 1) ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The algorithm sources below closely follow the published pseudocode:
// msn/ms2 from Michael & Scott (PODC'96) with msn exactly as the paper's
// Fig. 9; lazylist from Heller et al. (OPODIS'05); harris from Harris
// (DISC'01); snark reconstructed from Detlefs et al. (DISC'00) with both
// published bugs intact (see DESIGN.md). Fence placements implement the
// fixes of Sec. 4.2/4.3.
//
//===----------------------------------------------------------------------===//

#include "impls/Impls.h"

#include "obs/Log.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace checkfence;
using namespace checkfence::impls;

const std::vector<ImplInfo> &checkfence::impls::allImpls() {
  static const std::vector<ImplInfo> Impls = {
      {"ms2", "queue",
       "Two-lock queue [33]: linked list with independent head/tail locks"},
      {"msn", "queue",
       "Nonblocking queue [33]: compare-and-swap instead of locks (Fig. 9)"},
      {"lazylist", "set",
       "Lazy list-based set [6,18]: per-node locks, lock-free membership"},
      {"harris", "set",
       "Nonblocking set [16]: sorted list, CAS with marked pointers"},
      {"snark", "deque",
       "Nonblocking deque [8,10]: linked list, double-compare-and-swap"},
      {"treiber", "stack",
       "Treiber lock-free stack (extension beyond Table 1): CAS on top"},
  };
  return Impls;
}

const checkfence::impls::ImplInfo *
checkfence::impls::findImpl(const std::string &Name) {
  for (const ImplInfo &I : allImpls())
    if (I.Name == Name)
      return &I;
  return nullptr;
}

std::string checkfence::impls::preludeSource() {
  return R"CF(
/* ---- CheckFence-C prelude: synchronization primitives ---- */
extern void assert(int expr);
extern void assume(int expr);
extern void fence(char *type);
extern void observe(int v);
extern void commit(); /* commit-point marker (baseline method) */

typedef int lock_t;
extern void spin_lock(lock_t *l);
extern void spin_unlock(lock_t *l);
void lock(lock_t *l) { spin_lock(l); }
void unlock(lock_t *l) { spin_unlock(l); }

/* Compare-and-swap, modeled with an atomic block and no implied fences
   (paper Fig. 6). */
int cas(void *loc, unsigned old, unsigned nw) {
  int r;
  atomic {
    r = (*loc == old);
    if (r)
      *loc = nw;
  }
  return r;
}

/* Double compare-and-swap for the snark deque. */
int dcas(void *a1, void *a2, unsigned o1, unsigned o2,
         unsigned n1, unsigned n2) {
  int r;
  atomic {
    r = (*a1 == o1) && (*a2 == o2);
    if (r) {
      *a1 = n1;
      *a2 = n2;
    }
  }
  return r;
}
)CF";
}

int checkfence::impls::firstImplLine(const std::string &Source) {
  static const std::string Prelude = preludeSource();
  if (Source.compare(0, Prelude.size(), Prelude) != 0)
    return 1;
  return static_cast<int>(std::count(Prelude.begin(), Prelude.end(), '\n')) +
         1;
}

namespace {

const char *Ms2Source = R"CF(
/* ---- ms2: Michael & Scott two-lock queue ---- */
typedef int value_t;
typedef struct node {
  struct node *next;
  value_t value;
} node_t;
typedef struct queue {
  node_t *head;
  node_t *tail;
  lock_t head_lock;
  lock_t tail_lock;
} queue_t;
extern node_t *new_node();
extern void delete_node(node_t *node);

queue_t queue;

void init_queue(void) {
  node_t *node = new_node();
  node->next = 0;
  queue.head = node;
  queue.tail = node;
  queue.head_lock = 0;
  queue.tail_lock = 0;
}

void enqueue(value_t value) {
  node_t *node = new_node();
  node->value = value;
  node->next = 0;
  fence("store-store"); /* publish fields before linking (Sec. 4.3) */
  lock(&queue.tail_lock);
  queue.tail->next = node;
#ifdef COMMIT_POINTS
  commit(); /* linking commits the enqueue */
#endif
  queue.tail = node;
  unlock(&queue.tail_lock);
}

int dequeue(value_t *pvalue) {
  lock(&queue.head_lock);
  node_t *node = queue.head;
  fence("load-load"); /* dependent-load reordering (Sec. 4.3) */
  node_t *new_head = node->next;
  if (new_head == 0) {
#ifdef COMMIT_POINTS
    commit(); /* reading next == 0 commits the empty dequeue */
#endif
    unlock(&queue.head_lock);
    return 0;
  }
  fence("load-load"); /* dependent-load reordering (Sec. 4.3) */
  *pvalue = new_head->value;
  queue.head = new_head;
#ifdef COMMIT_POINTS
  commit(); /* head update commits the dequeue */
#endif
  unlock(&queue.head_lock);
  delete_node(node);
  return 1;
}

/* ---- test wrappers ---- */
void init_op(void) { init_queue(); }
void enqueue_op(value_t v) { enqueue(v); }
value_t dequeue_op(void) {
  value_t v;
  if (dequeue(&v))
    return v;
  return 2; /* EMPTY */
}
)CF";

const char *MsnSource = R"CF(
/* ---- msn: Michael & Scott non-blocking queue (paper Fig. 9) ---- */
typedef int value_t;
typedef struct node {
  struct node *next;
  value_t value;
} node_t;
typedef struct queue {
  node_t *head;
  node_t *tail;
} queue_t;
extern node_t *new_node();
extern void delete_node(node_t *node);

queue_t queue;

void init_queue(void) {
  node_t *node = new_node();
  node->next = 0;
  queue.head = node;
  queue.tail = node;
}

void enqueue(value_t value) {
  node_t *node, *tail, *next;
  node = new_node();
  node->value = value;
  node->next = 0;
  fence("store-store"); /* Fig. 9 line 29 */
  while (1) {
    tail = queue.tail;
    fence("load-load"); /* Fig. 9 line 32 */
    next = tail->next;
    fence("load-load"); /* Fig. 9 line 34 */
    if (tail == queue.tail) {
      if (next == 0) {
        if (cas(&tail->next, (unsigned) next, (unsigned) node)) {
#ifdef COMMIT_POINTS
          commit(); /* successful link CAS commits the enqueue */
#endif
          break;
        }
      } else {
        cas(&queue.tail, (unsigned) tail, (unsigned) next);
      }
    }
  }
  fence("store-store"); /* Fig. 9 line 44 (CAS reordering) */
  cas(&queue.tail, (unsigned) tail, (unsigned) node);
}

int dequeue(value_t *pvalue) {
  node_t *head, *tail, *next;
  while (1) {
    head = queue.head;
    fence("load-load"); /* Fig. 9 line 53 */
    tail = queue.tail;
    fence("load-load"); /* Fig. 9 line 55 */
    next = head->next;
    fence("load-load"); /* Fig. 9 line 57 */
    if (head == queue.head) {
      if (head == tail) {
        if (next == 0) {
#ifdef COMMIT_POINTS
          commit(1); /* the next-load (one access back) commits the empty
                        dequeue; the head re-read sits in between */
#endif
          return 0;
        }
        cas(&queue.tail, (unsigned) tail, (unsigned) next);
      } else {
        *pvalue = next->value;
        if (cas(&queue.head, (unsigned) head, (unsigned) next)) {
#ifdef COMMIT_POINTS
          commit(); /* successful head CAS commits the dequeue */
#endif
          break;
        }
      }
    }
  }
  delete_node(head);
  return 1;
}

/* ---- test wrappers ---- */
void init_op(void) { init_queue(); }
void enqueue_op(value_t v) { enqueue(v); }
value_t dequeue_op(void) {
  value_t v;
  if (dequeue(&v))
    return v;
  return 2; /* EMPTY */
}
)CF";

const char *LazylistSource = R"CF(
/* ---- lazylist: Heller et al. lazy list-based set ----
   Keys: head sentinel 0, elements 1..2 (value v maps to key v+1),
   tail sentinel 3. */
typedef struct entry {
  int key;
  struct entry *next;
  lock_t lck;
  int marked;
} entry_t;
extern entry_t *new_node();
extern void delete_node(entry_t *e);

entry_t *Head;

void init_set(void) {
  entry_t *h = new_node();
  entry_t *t = new_node();
  t->key = 3;
  t->next = 0;
  t->marked = 0;
  t->lck = 0;
  h->key = 0;
  h->next = t;
  h->marked = 0;
  h->lck = 0;
  Head = h;
}

int validate(entry_t *pred, entry_t *curr) {
  return pred->marked == 0 && curr->marked == 0 && pred->next == curr;
}

int add(int k) {
  while (1) {
    entry_t *pred = Head;
    fence("load-load");
    entry_t *curr = pred->next;
    fence("load-load");
    while (curr->key < k) {
      pred = curr;
      curr = curr->next;
      fence("load-load");
    }
    lock(&pred->lck);
    lock(&curr->lck);
    if (validate(pred, curr)) {
      int r;
      if (curr->key == k) {
        r = 0;
      } else {
        entry_t *n = new_node();
        n->key = k;
        n->lck = 0;
        n->next = curr;
#ifndef LAZYLIST_INIT_BUG
        n->marked = 0; /* the initialization missing from the published
                          pseudocode (Sec. 4.1) */
#endif
        fence("store-store"); /* publish fields before linking */
        pred->next = n;
        r = 1;
      }
      unlock(&curr->lck);
      unlock(&pred->lck);
      return r;
    }
    unlock(&curr->lck);
    unlock(&pred->lck);
  }
}

int remove_key(int k) {
  while (1) {
    entry_t *pred = Head;
    fence("load-load");
    entry_t *curr = pred->next;
    fence("load-load");
    while (curr->key < k) {
      pred = curr;
      curr = curr->next;
      fence("load-load");
    }
    lock(&pred->lck);
    lock(&curr->lck);
    if (validate(pred, curr)) {
      int r;
      if (curr->key != k) {
        r = 0;
      } else {
        curr->marked = 1;      /* logical delete */
        fence("store-store");
        pred->next = curr->next; /* physical unlink */
        r = 1;
      }
      unlock(&curr->lck);
      unlock(&pred->lck);
      return r;
    }
    unlock(&curr->lck);
    unlock(&pred->lck);
  }
}

/* Wait-free, lock-free membership test. */
int contains(int k) {
  entry_t *curr = Head;
  fence("load-load");
  while (curr->key < k) {
    curr = curr->next;
    fence("load-load");
  }
  return curr->key == k && curr->marked == 0;
}

/* ---- test wrappers ---- */
void init_op(void) { init_set(); }
int add_op(int v) { return add(v + 1); }
int contains_op(int v) { return contains(v + 1); }
int remove_op(int v) { return remove_key(v + 1); }
)CF";

const char *HarrisSource = R"CF(
/* ---- harris: Harris non-blocking set (DISC'01) ----
   The deleted-bit is packed into the low bit of the next pointer; the
   ptr_mark/ptr_is_marked/ptr_unmark builtins model the packed word.
   Keys: head sentinel 0, elements 1..2, tail sentinel 3. */
typedef struct hnode {
  int key;
  struct hnode *next;
} hnode_t;
extern hnode_t *new_node();
extern hnode_t *ptr_mark(hnode_t *p, int b);
extern int ptr_is_marked(hnode_t *p);
extern hnode_t *ptr_unmark(hnode_t *p);

hnode_t *Head;
hnode_t *Tail;

void init_set(void) {
  hnode_t *h = new_node();
  hnode_t *t = new_node();
  t->key = 3;
  t->next = 0;
  h->key = 0;
  h->next = t;
  fence("store-store");
  Head = h;
  Tail = t;
}

/* Harris's search: *left_node and the returned right node straddle key. */
hnode_t *search(int key, hnode_t **left_node) {
  hnode_t *left_node_next;
  hnode_t *right_node;
  while (1) { /* search_again */
    int retry = 0;
    hnode_t *t = Head;
    fence("load-load");
    hnode_t *t_next = t->next;
    fence("load-load");
    left_node_next = 0;
    /* 1: find left_node and right_node */
    do {
      if (!ptr_is_marked(t_next)) {
        *left_node = t;
        left_node_next = t_next;
      }
      t = ptr_unmark(t_next);
      if (t == Tail)
        break;
      t_next = t->next;
      fence("load-load");
    } while (ptr_is_marked(t_next) || t->key < key);
    right_node = t;
    fence("load-load");
    /* 2: check nodes are adjacent */
    if (left_node_next == right_node) {
      if (right_node != Tail && ptr_is_marked(right_node->next))
        retry = 1; /* goto search_again */
      if (!retry)
        return right_node;
    } else {
      /* 3: remove one or more marked nodes */
      if (cas(&(*left_node)->next, (unsigned) left_node_next,
              (unsigned) right_node)) {
        if (right_node != Tail && ptr_is_marked(right_node->next))
          retry = 1;
        if (!retry)
          return right_node;
      }
    }
  }
}

int add(int key) {
  hnode_t *left;
  while (1) {
    hnode_t *right = search(key, &left);
    if (right != Tail && right->key == key)
      return 0;
    hnode_t *n = new_node();
    n->key = key;
    n->next = right;
    fence("store-store"); /* publish fields before linking */
    if (cas(&left->next, (unsigned) right, (unsigned) n))
      return 1;
  }
}

int remove_key(int key) {
  hnode_t *left;
  while (1) {
    hnode_t *right = search(key, &left);
    if (right == Tail || right->key != key)
      return 0;
    hnode_t *right_next = right->next;
    fence("load-load");
    if (!ptr_is_marked(right_next)) {
      if (cas(&right->next, (unsigned) right_next,
              (unsigned) ptr_mark(right_next, 1))) {
        /* attempt physical removal; search() cleans up on failure */
        if (!cas(&left->next, (unsigned) right, (unsigned) right_next))
          search(key, &left);
        return 1;
      }
    }
  }
}

int contains(int key) {
  hnode_t *left;
  hnode_t *right = search(key, &left);
  return right != Tail && right->key == key;
}

/* ---- test wrappers ---- */
void init_op(void) { init_set(); }
int add_op(int v) { return add(v + 1); }
int contains_op(int v) { return contains(v + 1); }
int remove_op(int v) { return remove_key(v + 1); }
)CF";

const char *SnarkSource = R"CF(
/* ---- snark: DCAS-based non-blocking deque (DISC'00) ----
   Reconstructed from the published pseudocode with both known bugs
   intact (Sec. 4.1 reproduces them on tests D0 and Dq).
   Values: 0/1 payloads, 2 = EMPTY, 9 = scrubbed. */
typedef int value_t;
typedef struct snode {
  struct snode *L;
  struct snode *R;
  value_t V;
} snode_t;
extern snode_t *new_node();

snode_t *Dummy;
snode_t *LeftHat;
snode_t *RightHat;

void init_deque(void) {
  Dummy = new_node();
  Dummy->L = Dummy; /* sentinel self-loops */
  Dummy->R = Dummy;
  Dummy->V = 9;
  LeftHat = Dummy;
  RightHat = Dummy;
}

int pushRight(value_t v) {
  snode_t *nd = new_node();
  nd->R = Dummy;
  nd->V = v;
  fence("store-store"); /* publish fields before linking */
  while (1) {
    snode_t *rh = RightHat;
    fence("load-load");
    snode_t *rhR = rh->R;
    fence("load-load");
    if (rhR == rh) { /* deque empty */
      nd->L = Dummy;
      fence("store-store");
      snode_t *lh = LeftHat;
      if (dcas(&RightHat, &LeftHat, (unsigned) rh, (unsigned) lh,
               (unsigned) nd, (unsigned) nd))
        return 1;
    } else {
      nd->L = rh;
      fence("store-store");
      if (dcas(&RightHat, &rh->R, (unsigned) rh, (unsigned) rhR,
               (unsigned) nd, (unsigned) nd))
        return 1;
    }
  }
}

int pushLeft(value_t v) {
  snode_t *nd = new_node();
  nd->L = Dummy;
  nd->V = v;
  fence("store-store");
  while (1) {
    snode_t *lh = LeftHat;
    fence("load-load");
    snode_t *lhL = lh->L;
    fence("load-load");
    if (lhL == lh) { /* deque empty */
      nd->R = Dummy;
      fence("store-store");
      snode_t *rh = RightHat;
      if (dcas(&LeftHat, &RightHat, (unsigned) lh, (unsigned) rh,
               (unsigned) nd, (unsigned) nd))
        return 1;
    } else {
      nd->R = lh;
      fence("store-store");
      if (dcas(&LeftHat, &lh->L, (unsigned) lh, (unsigned) lhL,
               (unsigned) nd, (unsigned) nd))
        return 1;
    }
  }
}

value_t popRight(void) {
  while (1) {
    snode_t *rh = RightHat;
    fence("load-load");
    snode_t *lh = LeftHat;
    snode_t *rhR = rh->R;
    fence("load-load");
    if (rhR == rh)
      return 2; /* EMPTY */
    if (rh == lh) { /* single element: clear both hats */
      if (dcas(&RightHat, &LeftHat, (unsigned) rh, (unsigned) lh,
               (unsigned) Dummy, (unsigned) Dummy))
        return rh->V;
    } else {
      snode_t *rhL = rh->L;
      fence("load-load");
      if (dcas(&RightHat, &rh->L, (unsigned) rh, (unsigned) rhL,
               (unsigned) rhL, (unsigned) rh)) {
        value_t result = rh->V;
        rh->R = Dummy; /* scrub the popped node */
        rh->V = 9;
        return result;
      }
    }
  }
}

value_t popLeft(void) {
  while (1) {
    snode_t *lh = LeftHat;
    fence("load-load");
    snode_t *rh = RightHat;
    snode_t *lhL = lh->L;
    fence("load-load");
    if (lhL == lh)
      return 2; /* EMPTY */
    if (lh == rh) {
      if (dcas(&LeftHat, &RightHat, (unsigned) lh, (unsigned) rh,
               (unsigned) Dummy, (unsigned) Dummy))
        return lh->V;
    } else {
      snode_t *lhR = lh->R;
      fence("load-load");
      if (dcas(&LeftHat, &lh->R, (unsigned) lh, (unsigned) lhR,
               (unsigned) lhR, (unsigned) lh)) {
        value_t result = lh->V;
        lh->L = Dummy;
        lh->V = 9;
        return result;
      }
    }
  }
}

/* ---- test wrappers ---- */
void init_op(void) { init_deque(); }
void pushleft_op(value_t v) { pushLeft(v); }
void pushright_op(value_t v) { pushRight(v); }
value_t popleft_op(void) { return popLeft(); }
value_t popright_op(void) { return popRight(); }
)CF";

const char *TreiberSource = R"CF(
/* ---- treiber: lock-free stack (extension, not part of Table 1) ----
   The classic single-CAS stack (Treiber, IBM TR RJ5118 1986). It shows
   the same two relaxed-memory failure classes as the paper's algorithms:
   incomplete initialization (the value store may pass the linking CAS)
   and dependent-load reordering (the field loads may pass the top load).
   The fences below are the synthesizer's minimal placement. */
typedef int value_t;
typedef struct node {
  struct node *next;
  value_t value;
} node_t;
extern node_t *new_node();
extern void delete_node(node_t *node);

node_t *top;

void init_stack(void) {
  top = 0;
}

void push(value_t value) {
  node_t *node, *t;
  node = new_node();
  node->value = value;
  while (1) {
    t = top;
    node->next = t;
    fence("store-store"); /* publish value/next before the linking CAS */
    if (cas(&top, (unsigned) t, (unsigned) node)) {
#ifdef COMMIT_POINTS
      commit(); /* successful top CAS commits the push */
#endif
      break;
    }
  }
}

int pop(value_t *pvalue) {
  node_t *t, *next;
  while (1) {
    t = top;
    if (t == 0) {
#ifdef COMMIT_POINTS
      commit(); /* the empty-top load commits the empty pop */
#endif
      return 0;
    }
    fence("load-load"); /* t's fields only after t itself (Sec. 4.3) */
    next = t->next;
    *pvalue = t->value;
    if (cas(&top, (unsigned) t, (unsigned) next)) {
#ifdef COMMIT_POINTS
      commit(); /* successful top CAS commits the pop */
#endif
      break;
    }
  }
  delete_node(t);
  return 1;
}

/* ---- test wrappers ---- */
void init_op(void) { init_stack(); }
void push_op(value_t v) { push(v); }
value_t pop_op(void) {
  value_t v;
  if (pop(&v))
    return v;
  return 2; /* EMPTY */
}
)CF";

const char *RefQueueSource = R"CF(
/* ---- reference queue: sequential circular buffer ---- */
typedef int value_t;
value_t buf[12];
int qhead;
int qtail;

void init_op(void) {
  qhead = 0;
  qtail = 0;
}
void enqueue_op(value_t v) {
  atomic {
    buf[qtail] = v;
    qtail = qtail + 1;
  }
}
value_t dequeue_op(void) {
  value_t r;
  atomic {
    if (qhead == qtail) {
      r = 2; /* EMPTY */
    } else {
      r = buf[qhead];
      qhead = qhead + 1;
    }
  }
  return r;
}
)CF";

const char *RefStackSource = R"CF(
/* ---- reference stack: sequential array stack ---- */
typedef int value_t;
value_t sbuf[12];
int scount;

void init_op(void) {
  scount = 0;
}
void push_op(value_t v) {
  atomic {
    sbuf[scount] = v;
    scount = scount + 1;
  }
}
value_t pop_op(void) {
  value_t r;
  atomic {
    if (scount == 0) {
      r = 2; /* EMPTY */
    } else {
      scount = scount - 1;
      r = sbuf[scount];
    }
  }
  return r;
}
)CF";

const char *RefSetSource = R"CF(
/* ---- reference set: membership flags over the key domain {0,1} ---- */
int present[2];

void init_op(void) {
  present[0] = 0;
  present[1] = 0;
}
int add_op(int v) {
  int r;
  atomic {
    r = (present[v] == 0);
    if (r)
      present[v] = 1;
  }
  return r;
}
int remove_op(int v) {
  int r;
  atomic {
    r = (present[v] == 1);
    if (r)
      present[v] = 0;
  }
  return r;
}
int contains_op(int v) {
  int r;
  atomic { r = (present[v] == 1); }
  return r;
}
)CF";

const char *RefDequeSource = R"CF(
/* ---- reference deque: sequential array double-ended queue ---- */
typedef int value_t;
value_t dbuf[16];
int dleft;  /* index of leftmost element */
int dright; /* index one past the rightmost element */

void init_op(void) {
  dleft = 8;
  dright = 8;
}
void pushleft_op(value_t v) {
  atomic {
    dleft = dleft - 1;
    dbuf[dleft] = v;
  }
}
void pushright_op(value_t v) {
  atomic {
    dbuf[dright] = v;
    dright = dright + 1;
  }
}
value_t popleft_op(void) {
  value_t r;
  atomic {
    if (dleft == dright) {
      r = 2; /* EMPTY */
    } else {
      r = dbuf[dleft];
      dleft = dleft + 1;
    }
  }
  return r;
}
value_t popright_op(void) {
  value_t r;
  atomic {
    if (dleft == dright) {
      r = 2; /* EMPTY */
    } else {
      dright = dright - 1;
      r = dbuf[dright];
    }
  }
  return r;
}
)CF";

} // namespace

std::string checkfence::impls::sourceFor(const std::string &Name) {
  std::string Body;
  if (Name == "ms2")
    Body = Ms2Source;
  else if (Name == "msn")
    Body = MsnSource;
  else if (Name == "lazylist")
    Body = LazylistSource;
  else if (Name == "harris")
    Body = HarrisSource;
  else if (Name == "snark")
    Body = SnarkSource;
  else if (Name == "treiber")
    Body = TreiberSource;
  else {
    obs::logf(obs::LogLevel::Error, "impls", "unknown implementation '%s'",
              Name.c_str());
    std::abort();
  }
  return preludeSource() + Body;
}

std::string checkfence::impls::referenceFor(const std::string &Kind) {
  std::string Body;
  if (Kind == "queue")
    Body = RefQueueSource;
  else if (Kind == "set")
    Body = RefSetSource;
  else if (Kind == "deque")
    Body = RefDequeSource;
  else if (Kind == "stack")
    Body = RefStackSource;
  else {
    obs::logf(obs::LogLevel::Error, "impls", "unknown data-type kind '%s'",
              Kind.c_str());
    std::abort();
  }
  return preludeSource() + Body;
}
