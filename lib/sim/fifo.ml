type 'a t = { front : 'a list; rear : 'a list; len : int }

let empty = { front = []; rear = []; len = 0 }
let push x q = { q with rear = x :: q.rear; len = q.len + 1 }
let length q = q.len

let rec drop_while p f q =
  match q with
  | { front = []; rear = _ :: _; _ } ->
      drop_while p f { q with front = List.rev q.rear; rear = [] }
  | { front = x :: front; rear; len } when p x ->
      f x;
      drop_while p f { front; rear; len = len - 1 }
  | q -> q

let iter f q =
  List.iter f q.front;
  List.iter f (List.rev q.rear)

let to_list q = q.front @ List.rev q.rear
