package train

import (
	"errors"
	"sync"
)

// Source supplies file contents to a Loader. *dcache.Peer satisfies it;
// FetchFunc adapts a bare function, such as a closure over Dataset.Get.
type Source interface {
	ReadFile(path string) ([]byte, error)
}

// FetchFunc adapts a fetch function to a Source.
type FetchFunc func(path string) ([]byte, error)

// ReadFile implements Source.
func (f FetchFunc) ReadFile(path string) ([]byte, error) { return f(path) }

// LoaderOption configures a Loader (functional options, matching the
// style of internal/wire and internal/epoch).
type LoaderOption func(*LoaderConfig)

// WithWorkers sets the number of concurrent I/O goroutines (PyTorch's
// num_workers). Default 4.
func WithWorkers(n int) LoaderOption {
	return func(c *LoaderConfig) { c.Workers = n }
}

// WithBatchSize sets the number of files per batch. Default 32.
func WithBatchSize(n int) LoaderOption {
	return func(c *LoaderConfig) { c.BatchSize = n }
}

// WithPrefetch bounds how many files may be in flight or buffered ahead
// of the consumer — the loader's memory footprint in files. Default
// 2×Workers×BatchSize.
func WithPrefetch(n int) LoaderOption {
	return func(c *LoaderConfig) { c.Prefetch = n }
}

// Loader streams minibatches of files in a fixed epoch order with
// parallel prefetching I/O workers — the role PyTorch's DataLoader plays
// in Figure 1 of the paper. The training loop consumes batches in order
// while workers fetch ahead, which is the pipelining §6.6 relies on
// ("there are separate I/O threads to read files while the GPU computes
// gradients").
//
// Order is preserved exactly: batch k contains files
// order[k*BatchSize : (k+1)*BatchSize] in that order, regardless of which
// worker fetched each file or how fetches interleaved.
type Loader struct {
	fetch func(path string) ([]byte, error)
	order []string
	cfg   LoaderConfig

	results []chan fileResult // one slot per file, buffered(1)
	sem     chan struct{}     // bounds files in flight or buffered ahead
	jobs    chan int
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	next int // consumer position; owned by Next's caller
}

// LoaderConfig sizes the pipeline.
type LoaderConfig struct {
	// Workers is the number of concurrent I/O goroutines (PyTorch's
	// num_workers). Default 4.
	Workers int
	// Prefetch bounds how many files may be in flight or buffered ahead
	// of the consumer — the loader's memory footprint in files. Default
	// 2×Workers×BatchSize.
	Prefetch int
	// BatchSize is the number of files per batch. Default 32.
	BatchSize int

	// Epoch-reader knobs, consumed only by NewEpochLoaderFor (the
	// group-granular pipeline); the file-granular Loader ignores them.
	// See the WithEpoch* options in epoch_loader.go.
	epoch epochConfig
}

// Batch is one minibatch in epoch order.
type Batch struct {
	Index int      // batch number within the epoch
	Paths []string // file paths, in order
	Data  [][]byte // file contents, parallel to Paths
}

type fileResult struct {
	data []byte
	err  error
}

// ErrLoaderClosed is returned by Next after Close.
var ErrLoaderClosed = errors.New("train: loader closed")

// New starts the prefetch pipeline over the given epoch order. src must
// be safe for concurrent use; it is typically a *dcache.Peer, or a
// FetchFunc over Dataset.Get (routed through the task-grained cache).
func New(src Source, order []string, opts ...LoaderOption) *Loader {
	var cfg LoaderConfig
	for _, fn := range opts {
		fn(&cfg)
	}
	return newLoader(src.ReadFile, order, cfg)
}

func newLoader(fetch func(string) ([]byte, error), order []string, cfg LoaderConfig) *Loader {
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 32
	}
	if cfg.Prefetch < 1 {
		cfg.Prefetch = 2 * cfg.Workers * cfg.BatchSize
	}
	l := &Loader{
		fetch:   fetch,
		order:   order,
		cfg:     cfg,
		results: make([]chan fileResult, len(order)),
		sem:     make(chan struct{}, cfg.Prefetch),
		jobs:    make(chan int),
		done:    make(chan struct{}),
	}
	for i := range l.results {
		l.results[i] = make(chan fileResult, 1)
	}
	// Dispatcher: admits one file index per semaphore slot; the consumer
	// releases a slot as it reads each file, keeping the window sliding.
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(l.jobs)
		for i := range l.order {
			select {
			case l.sem <- struct{}{}:
			case <-l.done:
				return
			}
			select {
			case l.jobs <- i:
			case <-l.done:
				return
			}
		}
	}()
	for range cfg.Workers {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for i := range l.jobs {
				b, err := l.fetch(l.order[i])
				l.results[i] <- fileResult{data: b, err: err} // buffered(1): never blocks
			}
		}()
	}
	return l
}

// Next returns the next batch in epoch order; ok is false when the epoch
// is complete. The first fetch failure ends the epoch with its error.
func (l *Loader) Next() (b Batch, ok bool, err error) {
	select {
	case <-l.done:
		return Batch{}, false, ErrLoaderClosed
	default:
	}
	if l.next >= len(l.order) {
		return Batch{}, false, nil
	}
	start := l.next
	end := min(start+l.cfg.BatchSize, len(l.order))
	b = Batch{
		Index: start / l.cfg.BatchSize,
		Paths: l.order[start:end],
		Data:  make([][]byte, 0, end-start),
	}
	for i := start; i < end; i++ {
		var r fileResult
		select {
		case r = <-l.results[i]:
		case <-l.done:
			return Batch{}, false, ErrLoaderClosed
		}
		<-l.sem // release the window slot this file occupied
		l.next = i + 1
		if r.err != nil {
			l.Close()
			return Batch{}, false, r.err
		}
		b.Data = append(b.Data, r.data)
	}
	return b, true, nil
}

// Close stops the pipeline and waits for the workers to exit. Safe to
// call multiple times; Next returns ErrLoaderClosed afterwards.
func (l *Loader) Close() {
	l.once.Do(func() {
		close(l.done)
		// Workers drain naturally: the dispatcher stops feeding jobs and
		// closes the channel; result slots are buffered so no worker can
		// be stuck on a send.
	})
	l.wg.Wait()
}
